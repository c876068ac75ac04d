"""Supervised multi-process serving pool over a shared read-only catalog.

:class:`PoolServer` scales the serve plane across *processes*: N worker
processes each hold a private engine decoded from one shared-memory
catalog snapshot (:mod:`repro.serving.shared_catalog` — no engine
pickling, no per-worker rebuild), and the parent keeps the pieces the
single-process :class:`~repro.serving.server.QueryServer` already
proved out — the coalescer, the token-validated answer cache, and the
shed ladder.  The parent's dispatcher hands each coalesced batch to one
worker over a private pipe pair; a collector thread merges results,
heartbeats, and process exits.

The headline is the robustness layer, not the fan-out:

* **Supervision** — a :class:`~repro.serving.supervisor.WorkerSupervisor`
  tracks per-slot heartbeats; silent workers are declared wedged and
  SIGKILLed, dead workers restart with jittered exponential backoff,
  and a crash-looping slot's circuit breaker parks it for a cool-down
  instead of burning CPU.
* **Per-request deadlines** — every batch carries a deadline; a batch
  stranded on a killed worker is retried on a surviving one, and a
  batch that cannot complete in time degrades through the shed ladder
  (*explicitly* — never a silent wrong answer, never a hang).  Optional
  hedging duplicates a slow batch onto an idle worker and takes the
  first answer.
* **Epoch swaps** — :meth:`PoolServer.republish` publishes the current
  engine state as a new shared segment; workers roll over between
  batches without dropping requests.  Every worker answer is
  revalidated against the *admission-time* token before being served
  fresh: a request admitted after a catalog mutation can never receive
  a pre-mutation answer (it is retagged stale or recomputed instead).
* **Graceful drain** — :meth:`PoolServer.drain` stops intake, lets
  in-flight batches finish (re-queueing those stranded on dead
  workers), then stops workers; a drain that exceeds its budget
  force-kills survivors and reports itself unclean (the CLI maps that
  to a distinct exit code).

Consistency contract.  Workers answer from an immutable snapshot, so a
worker answer equals the single-process engine's answer for the same
snapshot bit-for-bit (the estimators are deterministic).  The parent
serves a worker answer as ``fresh``/``stale`` only when the column's
frozen publish-time token equals the token read at admission; on any
mismatch (append, rebuild, or swap raced the request) the answer is
recomputed on the parent's live engine under the server's degradation
policy.  Cache entries are written only for token-matched answers, so
the cache inherits the single-process proof: no pre-mutation answer is
ever served after the mutation.

Policy contract.  A worker engine holds only synopses (no base
tables), so it serves exactly the ladder rungs a frozen snapshot can
honestly provide: ``fresh`` always, ``stale`` only when the server's
:class:`~repro.engine.resilience.DegradationPolicy` allows it.  Every
other case — missing synopsis, stale under a stale-forbidding policy —
is *deferred* to the parent, whose live engine runs the full ladder
(fallback, progressive, exact) with the same semantics as
:class:`~repro.serving.server.QueryServer`.  ``audit_rate`` likewise
applies on the parent's recompute path only: worker answers come from
the frozen snapshot whose build-time error predictions already cover
them, and a worker-side audit would feed an auditor that dies with the
worker process.

Liveness contract.  Workers answer big coalesced batches in chunks and
heartbeat between chunks, so a legitimately heavy batch is never
mistaken for a wedged worker; only silence longer than
``hang_timeout_ms`` with no chunk progress draws a SIGKILL.  On the
parent, the collector thread — the only thread servicing results,
exits, deadlines, and hedges — survives unexpected exceptions by
counting and skipping the failed pass; if it fails many passes in a
row it resolves every open flight through the shed ladder and marks
the pool unhealthy (``stats()["pool"]["collector_failed"]``) instead
of leaving callers blocked.

Fault sites (chaos suite): ``worker_batch`` (kill → SIGKILL mid-batch,
slow → wedged worker), ``worker_heartbeat`` (fail → heartbeat
silence), ``shared_attach`` (corrupt → torn attach).  Forked workers
inherit the installed :class:`~repro.internal.faults.FaultInjector`,
and rules match on the worker's ``generation`` so a crashed worker's
replacement survives.
"""

from __future__ import annotations

import collections
import os
import random
import signal
import threading
import time
from dataclasses import dataclass, field

import multiprocessing
from multiprocessing import connection

from repro.engine.engine import AggregateQuery, QueryResult
from repro.errors import (
    FaultInjectedError,
    InvalidParameterError,
    ServerClosedError,
)
from repro.internal.faults import fault_point
from repro.serving.coalescer import PendingRequest, ServeFuture
from repro.serving.server import QueryServer
from repro.serving.shared_catalog import SharedCatalog, attach_catalog
from repro.serving.supervisor import (
    ACTION_KILL,
    ACTION_SPAWN,
    SLOT_LIVE,
    WorkerSupervisor,
)

#: Worker exit codes (positive, distinct from signal deaths < 0).
EXIT_OK = 0
EXIT_ATTACH_FAILED = 3

_POLL_SECONDS = 0.05

#: Queries answered per worker chunk.  A coalesced batch is answered in
#: chunks with a heartbeat between them, so a legitimately heavy batch
#: keeps proving liveness instead of tripping the supervisor's hang
#: detection — only a worker stuck *inside* one chunk goes silent long
#: enough to be declared wedged.  Large enough that the vectorised
#: ``estimate_many`` path still amortises per-call overhead.
_CHUNK_QUERIES = 64

#: Consecutive collector-loop failures tolerated before the pool gives
#: up on the collector, fails every open flight through the shed
#: ladder, and marks itself unhealthy (``stats()["pool"]
#: ["collector_failed"]``).  Transient errors just skip one pass.
_COLLECTOR_FAILURE_LIMIT = 25


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _send_heartbeat(result_w, slot: int, generation: int) -> bool:
    """Emit one heartbeat; injected faults silence it (never crash)."""
    try:
        fault_point("worker_heartbeat", worker=slot, generation=generation)
    except FaultInjectedError:
        return False
    try:
        result_w.send(("hb", slot, generation))
    except OSError:
        os._exit(EXIT_OK)
    return True


def _answer_specs(engine, specs: list, serve_stale: bool) -> list:
    """Answer one chunk of plain-tuple query specs against ``engine``.

    Returns parallel plain tuples — ``("ok", estimate, name, words,
    degradation)``, ``("defer", reason)``, or ``("err", exc_type_name,
    message)`` — so nothing engine-shaped ever crosses the pipe.

    The worker engine holds *only* the snapshot's synopses (no base
    tables), so it can serve exactly two rungs of the server's
    degradation ladder: ``fresh``, and ``stale`` when the policy admits
    it (``serve_stale`` is the parent policy's ``allow_stale``
    projection).  Everything else — missing synopsis, stale under a
    stale-forbidding policy — is returned as ``("defer", ...)`` and the
    parent answers it on its live engine under the full ladder, which
    is what keeps :class:`PoolServer` semantics identical to
    :class:`~repro.serving.server.QueryServer` instead of silently
    serving stale under every policy.  A whole-chunk failure falls back
    to per-query answering so one malformed query cannot poison its
    batchmates.
    """
    queries = [
        AggregateQuery(
            table=table, column=column, aggregate=aggregate, low=low, high=high
        )
        for table, column, aggregate, low, high in specs
    ]
    answers: list = [None] * len(queries)
    answerable = []
    for index, query in enumerate(queries):
        key = (query.table, query.column)
        if key not in engine._synopses:  # noqa: SLF001 — snapshot introspection
            answers[index] = ("defer", "no synopsis in snapshot")
        elif key in engine._stale and not serve_stale:  # noqa: SLF001
            answers[index] = ("defer", "stale synopsis; policy forbids stale")
        else:
            answerable.append(index)
    if not answerable:
        return answers
    subset = [queries[index] for index in answerable]
    try:
        results = engine.execute_batch(subset, on_stale="serve")
    except Exception:  # noqa: BLE001 — isolate per query below
        results = None
    if results is not None:
        for index, result in zip(answerable, results):
            answers[index] = (
                "ok",
                result.estimate,
                result.synopsis_name,
                result.synopsis_words,
                result.degradation,
            )
        return answers
    for index in answerable:
        try:
            result = engine.execute(queries[index], on_stale="serve")
            answers[index] = (
                "ok",
                result.estimate,
                result.synopsis_name,
                result.synopsis_words,
                result.degradation,
            )
        except Exception as error:  # noqa: BLE001 — per-query isolation
            answers[index] = ("err", type(error).__name__, str(error))
    return answers


def _answer_batch(engine, specs: list, serve_stale: bool, heartbeat) -> list:
    """Answer one coalesced batch in chunks, heartbeating between them.

    ``heartbeat`` is called after every chunk but the last, so a large
    batch emits liveness at a bounded interval (one chunk's compute
    time) instead of going silent for the whole batch and being
    mistaken for a wedged worker.
    """
    answers: list = []
    for start in range(0, len(specs), _CHUNK_QUERIES):
        answers.extend(
            _answer_specs(engine, specs[start : start + _CHUNK_QUERIES], serve_stale)
        )
        if start + _CHUNK_QUERIES < len(specs):
            heartbeat()
    return answers


def _mark_stale(engine, stale_keys) -> None:
    """Restore publish-time staleness onto an attached snapshot engine.

    Monolithic staleness is a session property the persistence format
    drops, so the parent ships the stale key set alongside the segment;
    without it a worker would tag stale answers ``fresh`` (and serve
    them under stale-forbidding policies).
    """
    for key in stale_keys:
        engine._stale.add(tuple(key))  # noqa: SLF001 — snapshot restore


def _worker_main(
    slot: int,
    generation: int,
    segment_name: str,
    stale_keys: tuple,
    task_r,
    result_w,
    heartbeat_seconds: float,
    serve_stale: bool,
) -> None:
    """Worker process body: attach the shared catalog, answer batches.

    Exits via ``os._exit`` everywhere — a worker must never run the
    parent's (inherited, forked) atexit/finalizer state.
    """
    try:
        attached = attach_catalog(segment_name, worker=slot, generation=generation)
    except Exception as error:  # noqa: BLE001 — report, then die
        try:
            result_w.send(
                ("attach_error", slot, generation, f"{type(error).__name__}: {error}")
            )
        except OSError:
            pass
        os._exit(EXIT_ATTACH_FAILED)
    engine = attached.engine
    _mark_stale(engine, stale_keys)
    epoch = attached.epoch
    try:
        result_w.send(("attached", slot, generation, epoch, attached.restored))
    except OSError:
        os._exit(EXIT_OK)
    _send_heartbeat(result_w, slot, generation)
    last_heartbeat = time.monotonic()
    sequence = 0
    while True:
        try:
            ready = task_r.poll(heartbeat_seconds)
        except OSError:
            os._exit(EXIT_OK)
        now = time.monotonic()
        if now - last_heartbeat >= heartbeat_seconds:
            _send_heartbeat(result_w, slot, generation)
            last_heartbeat = now
        if not ready:
            continue
        try:
            message = task_r.recv()
        except (EOFError, OSError):
            os._exit(EXIT_OK)
        kind = message[0]
        if kind == "stop":
            try:
                result_w.send(("bye", slot, generation))
            except OSError:
                pass
            os._exit(EXIT_OK)
        elif kind == "swap":
            new_segment = message[1]
            new_stale_keys = message[2] if len(message) > 2 else ()
            try:
                attached = attach_catalog(
                    new_segment, worker=slot, generation=generation
                )
            except Exception as error:  # noqa: BLE001 — report, then die
                try:
                    result_w.send(
                        (
                            "attach_error",
                            slot,
                            generation,
                            f"{type(error).__name__}: {error}",
                        )
                    )
                except OSError:
                    pass
                os._exit(EXIT_ATTACH_FAILED)
            engine = attached.engine
            _mark_stale(engine, new_stale_keys)
            epoch = attached.epoch
            try:
                result_w.send(("swapped", slot, generation, epoch))
            except OSError:
                os._exit(EXIT_OK)
        elif kind == "batch":
            batch_id, specs = message[1], message[2]
            sequence += 1
            # The chaos hook: "kill" rules SIGKILL-equivalent the worker
            # mid-batch, "slow" rules wedge it past the hang timeout.
            try:
                fault_point(
                    "worker_batch",
                    worker=slot,
                    generation=generation,
                    seq=sequence,
                )
                answers = _answer_batch(
                    engine,
                    specs,
                    serve_stale,
                    lambda: _send_heartbeat(result_w, slot, generation),
                )
            except FaultInjectedError as error:
                answers = [("err", type(error).__name__, str(error))] * len(specs)
            try:
                result_w.send(("result", batch_id, epoch, answers))
            except OSError:
                os._exit(EXIT_OK)
            last_heartbeat = time.monotonic()
            _send_heartbeat(result_w, slot, generation)


# ----------------------------------------------------------------------
# Parent-side bookkeeping
# ----------------------------------------------------------------------
@dataclass
class _WorkerHandle:
    slot: int
    generation: int
    process: object
    task_w: object
    result_r: object
    epoch: int | None = None
    busy: int | None = None  # batch_id currently assigned, if any
    reaped: bool = False


@dataclass
class _Flight:
    """One coalesced batch moving through the pool."""

    flight_id: int
    requests: list
    specs: list
    deadline: float | None
    created_at: float
    attempts: int = 0
    hedged: bool = False
    done: bool = False
    #: batch_id -> slot for every dispatch of this flight still alive.
    dispatches: dict = field(default_factory=dict)


class PoolServer(QueryServer):
    """Multi-process :class:`QueryServer`: same front door, N engines.

    Construction does not touch processes; :meth:`start` publishes the
    catalog snapshot, spawns the workers, and starts the dispatcher and
    collector threads.  All :class:`QueryServer` knobs apply; the pool
    adds supervision, deadline, and hedging knobs.
    """

    def __init__(
        self,
        engine,
        *,
        workers: int = 2,
        heartbeat_interval_ms: float = 50.0,
        heartbeat_timeout_ms: float = 500.0,
        hang_timeout_ms: float = 2000.0,
        deadline_ms: float | None = 5000.0,
        hedge_ms: float | None = None,
        max_retries: int = 2,
        drain_timeout_ms: float = 5000.0,
        restart_backoff_ms: float = 50.0,
        restart_backoff_max_ms: float = 2000.0,
        worker_breaker_threshold: int = 5,
        worker_breaker_cooldown_ms: float = 30000.0,
        supervisor_seed: int | None = None,
        mp_context: str | None = None,
        **server_kwargs,
    ) -> None:
        super().__init__(engine, **server_kwargs)
        if workers < 1:
            raise InvalidParameterError(f"workers must be >= 1, got {workers}")
        if deadline_ms is not None and deadline_ms <= 0:
            raise InvalidParameterError(
                f"deadline_ms must be > 0 or None, got {deadline_ms}"
            )
        if hedge_ms is not None and hedge_ms <= 0:
            raise InvalidParameterError(
                f"hedge_ms must be > 0 or None, got {hedge_ms}"
            )
        if max_retries < 0:
            raise InvalidParameterError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        self.workers = int(workers)
        self.heartbeat_interval_seconds = heartbeat_interval_ms / 1000.0
        self.deadline_seconds = (
            deadline_ms / 1000.0 if deadline_ms is not None else None
        )
        self.hedge_seconds = hedge_ms / 1000.0 if hedge_ms is not None else None
        self.max_retries = int(max_retries)
        self.drain_timeout_ms = float(drain_timeout_ms)
        self._mp = multiprocessing.get_context(
            mp_context
            if mp_context is not None
            else ("fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn")
        )
        self._supervisor_seed = supervisor_seed
        self._supervisor_kwargs = dict(
            heartbeat_timeout_seconds=heartbeat_timeout_ms / 1000.0,
            hang_timeout_seconds=hang_timeout_ms / 1000.0,
            restart_backoff_seconds=restart_backoff_ms / 1000.0,
            restart_backoff_max_seconds=restart_backoff_max_ms / 1000.0,
            breaker_threshold=worker_breaker_threshold,
            breaker_cooldown_seconds=worker_breaker_cooldown_ms / 1000.0,
        )
        self.supervisor = WorkerSupervisor(
            workers,
            rng=random.Random(supervisor_seed),
            **self._supervisor_kwargs,
        )
        self.shared = SharedCatalog()
        self._epoch_tokens: dict[int, dict] = {}
        self._current_epoch = None
        self._handles: dict[int, _WorkerHandle] = {}
        self._flights: dict[int, _Flight] = {}
        self._by_batch: dict[int, tuple[_Flight, int]] = {}
        self._ready: collections.deque = collections.deque()
        self._pool_lock = threading.RLock()
        self._flight_seq = 0
        self._batch_seq = 0
        self._collector: threading.Thread | None = None
        self._collector_stop = threading.Event()
        self._collector_failed = False
        self._draining = False
        self._drain_clean: bool | None = None
        self._drain_lock = threading.Lock()
        self._sigterm_drain_started = threading.Event()
        self._wake_r, self._wake_w = self._mp.Pipe(duplex=False)
        self._pool_counters = {
            "dispatched": 0,
            "retries": 0,
            "hedges": 0,
            "hedge_wins": 0,
            "deadline_expired": 0,
            "degraded_batches": 0,
            "worker_exits": 0,
            "spawns": 0,
            "kills": 0,
            "epoch_swaps": 0,
            "token_mismatch_recomputed": 0,
            "worker_deferred": 0,
            "parent_recomputed": 0,
            "collector_errors": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "PoolServer":
        if self.running:
            return self
        if self._drain_clean is not None:
            # Restart after a drain: the old supervisor's slot states
            # describe processes that no longer exist, and the wake
            # pipe was closed with the collector.
            self.supervisor = WorkerSupervisor(
                self.workers,
                rng=random.Random(self._supervisor_seed),
                **self._supervisor_kwargs,
            )
            self._wake_r, self._wake_w = self._mp.Pipe(duplex=False)
        self._draining = False
        self._drain_clean = None
        self._collector_failed = False
        self._sigterm_drain_started.clear()
        epoch = self.shared.publish(self.engine)
        self._epoch_tokens[epoch.epoch] = epoch.tokens
        self._current_epoch = epoch
        self.metrics.gauge("pool_current_epoch").set(epoch.epoch)
        for action in self.supervisor.tick():
            if action.kind == ACTION_SPAWN:
                self._spawn(action.slot)
        self._collector_stop.clear()
        self._collector = threading.Thread(
            target=self._collector_loop, name="repro-pool-collector", daemon=True
        )
        self._collector.start()
        return super().start()  # dispatcher thread (QueryServer worker loop)

    def stop(self) -> None:
        """Graceful drain with the configured budget, then teardown."""
        if self._thread is None and self._collector is None:
            return
        self.drain(timeout_ms=self.drain_timeout_ms)

    def drain(self, timeout_ms: float | None = None) -> bool:
        """Stop intake, finish in-flight work, stop workers.

        Returns ``True`` for a clean drain (every admitted request
        answered, every worker exited on request) and ``False`` when
        the budget expired and survivors were force-killed.  Also
        recorded as :attr:`drain_was_clean` for the CLI's exit code.

        Serialised: concurrent callers (the SIGTERM drain thread racing
        an explicit ``stop()``, say) block until the first drain
        finishes and then get its recorded outcome instead of tearing
        down twice.
        """
        with self._drain_lock:
            if self._drain_clean is not None:
                return self._drain_clean
            return self._drain_locked(timeout_ms)

    def _drain_locked(self, timeout_ms: float | None) -> bool:
        budget = (
            timeout_ms / 1000.0
            if timeout_ms is not None
            else self.drain_timeout_ms / 1000.0
        )
        deadline = time.monotonic() + budget
        clean = True
        # 1. Stop intake: new submits raise ServerClosedError.
        self._draining = True
        if self._refiner is not None:
            self._refiner.stop()
            self._refiner = None
        # 2. Let the dispatcher flush what is queued, then stop it.
        while time.monotonic() < deadline and (
            len(self.coalescer) or self._has_open_flights()
        ):
            time.sleep(0.005)
        if len(self.coalescer) or self._has_open_flights():
            clean = False
        if self._thread is not None:
            self._stop.set()
            self.coalescer.wake()
            self._thread.join()
            self._thread = None
        # 3. Ask workers to exit; the collector observes their exits.
        with self._pool_lock:
            for handle in self._handles.values():
                try:
                    handle.task_w.send(("stop",))
                except OSError:
                    pass
        while time.monotonic() < deadline and any(
            handle.process.is_alive() for handle in self._handles.values()
        ):
            time.sleep(0.005)
        # 4. Force-kill survivors past the budget.
        for handle in self._handles.values():
            if handle.process.is_alive():
                clean = False
                handle.process.kill()
        for handle in self._handles.values():
            handle.process.join(timeout=1.0)
        # 5. Stop the collector and fail anything still unanswered.
        self._collector_stop.set()
        self._notify_collector()
        if self._collector is not None:
            self._collector.join()
            self._collector = None
        leftovers = list(self.coalescer.drain_all())
        with self._pool_lock:
            for flight in self._flights.values():
                if not flight.done:
                    flight.done = True
                    leftovers.extend(flight.requests)
            self._flights.clear()
            self._by_batch.clear()
            self._ready.clear()
            for handle in self._handles.values():
                self._close_handle(handle)
            self._handles.clear()
        for request in leftovers:
            if not request.future.done():
                clean = False
                request.future.set_exception(
                    ServerClosedError("server drained before answering")
                )
        for conn in (self._wake_r, self._wake_w):
            try:
                conn.close()
            except OSError:
                pass
        self.shared.close()
        self._epoch_tokens.clear()
        self._stop.set()
        self._drain_clean = clean
        self.metrics.counter(
            "pool_drains_total", clean=str(clean).lower()
        ).inc()
        return clean

    @property
    def drain_was_clean(self) -> bool | None:
        """Outcome of the last :meth:`drain` (None before any drain)."""
        return self._drain_clean

    def install_sigterm_handler(self):
        """Drain gracefully on SIGTERM (main thread only).

        The handler only hands the drain off to a dedicated thread:
        ``drain()`` acquires the coalescer condition and the pool lock,
        both non-reentrant, and a signal arriving while the main thread
        holds either (inside ``submit_many``, say) would deadlock the
        process if the handler drained inline.  Repeated SIGTERMs are
        coalesced into the one drain already running.

        Returns the previous handler so callers can restore it.
        """

        def _handler(signum, frame):  # noqa: ARG001 — signal signature
            if self._sigterm_drain_started.is_set():
                return
            self._sigterm_drain_started.set()
            threading.Thread(
                target=self.drain,
                kwargs={"timeout_ms": self.drain_timeout_ms},
                name="repro-pool-sigterm-drain",
            ).start()

        return signal.signal(signal.SIGTERM, _handler)

    # ------------------------------------------------------------------
    # Admission (parent side)
    # ------------------------------------------------------------------
    def _admit(self, queries: list) -> list[ServeFuture]:
        if self._draining:
            raise ServerClosedError("server is draining; no new requests")
        return super()._admit(queries)

    # ------------------------------------------------------------------
    # Epoch swaps
    # ------------------------------------------------------------------
    def republish(self):
        """Publish the engine's current state as a new catalog epoch.

        Call after catalog mutations (appends + refresh, rebuilds,
        compactions) so workers serve the new state.  Live workers roll
        over between batches; until a worker swaps, its answers are
        token-revalidated and can only be served stale or recomputed —
        never passed off as fresh.
        """
        epoch = self.shared.publish(self.engine)
        with self._pool_lock:
            self._epoch_tokens[epoch.epoch] = epoch.tokens
            self._current_epoch = epoch
            self._pool_counters["epoch_swaps"] += 1
            for handle in self._handles.values():
                try:
                    handle.task_w.send(
                        ("swap", epoch.segment_name, epoch.stale_keys)
                    )
                except OSError:
                    pass
        self.metrics.counter("pool_epoch_swaps_total").inc()
        self.metrics.gauge("pool_current_epoch").set(epoch.epoch)
        self._notify_collector()
        return epoch

    # ------------------------------------------------------------------
    # Dispatch (runs on the QueryServer worker thread)
    # ------------------------------------------------------------------
    def _flush(self, batch: list[PendingRequest]) -> None:
        """Turn one coalesced batch into a flight and hand it out."""
        now = time.monotonic()
        specs = [
            (
                request.query.table,
                request.query.column,
                request.query.aggregate,
                request.query.low,
                request.query.high,
            )
            for request in batch
        ]
        with self._pool_lock:
            # Checked under the same lock that files the flight, so no
            # batch can slip in between the failure sweep and the flag.
            if self._collector_failed:
                flight = None
            else:
                self._flight_seq += 1
                flight = _Flight(
                    flight_id=self._flight_seq,
                    requests=batch,
                    specs=specs,
                    deadline=(
                        now + self.deadline_seconds
                        if self.deadline_seconds is not None
                        else None
                    ),
                    created_at=now,
                )
                self._flights[flight.flight_id] = flight
                self._ready.append(flight)
                self._pump_locked()
        if flight is None:
            # Nobody is left to collect results; answer through the
            # ladder immediately rather than parking the batch forever.
            for request in batch:
                if not request.future.done():
                    self._complete_degraded(request, "collector failed")
            return
        self._notify_collector()

    def _pump_locked(self) -> None:
        """Assign ready flights to idle live workers (pool lock held)."""
        while self._ready:
            slot = self._idle_live_slot_locked()
            if slot is None:
                return
            flight = self._ready.popleft()
            if flight.done:
                continue
            self._dispatch_locked(flight, slot)

    def _idle_live_slot_locked(self) -> int | None:
        # Only ``live`` slots: a ``starting`` worker has not reported
        # ``attached`` yet and may still fail its attach, which would
        # strand the flight and spend one of its retries.  The
        # ``attached`` handler pumps once the slot goes live.
        for slot in self.supervisor.live_slots():
            handle = self._handles.get(slot)
            if (
                handle is not None
                and handle.busy is None
                and self.supervisor.state(slot) == SLOT_LIVE
            ):
                return slot
        return None

    def _dispatch_locked(self, flight: _Flight, slot: int) -> None:
        handle = self._handles[slot]
        self._batch_seq += 1
        batch_id = self._batch_seq
        try:
            handle.task_w.send(("batch", batch_id, flight.specs))
        except OSError:
            # Worker died between the liveness check and the send.  Mark
            # the handle unusable (so this loop does not retry the same
            # corpse forever) and requeue; the sentinel wakes the
            # collector, which observes the exit and pumps again.
            handle.busy = -1
            self._ready.appendleft(flight)
            return
        handle.busy = batch_id
        flight.attempts += 1
        flight.dispatches[batch_id] = slot
        self._by_batch[batch_id] = (flight, slot)
        self._pool_counters["dispatched"] += 1
        self.metrics.counter("pool_batches_dispatched_total").inc()

    # ------------------------------------------------------------------
    # Worker process management
    # ------------------------------------------------------------------
    def _spawn(self, slot: int) -> None:
        task_r, task_w = self._mp.Pipe(duplex=False)
        result_r, result_w = self._mp.Pipe(duplex=False)
        with self._pool_lock:
            segment_name = self._current_epoch.segment_name
            stale_keys = self._current_epoch.stale_keys
        generation = self.supervisor.generation(slot) + 1
        process = self._mp.Process(
            target=_worker_main,
            args=(
                slot,
                generation,
                segment_name,
                stale_keys,
                task_r,
                result_w,
                self.heartbeat_interval_seconds,
                # The degradation policy's projection onto what a
                # table-less snapshot engine can serve; every other
                # ladder rung defers to the parent (see _answer_specs).
                self.policy.allow_stale,
            ),
            name=f"repro-pool-worker-{slot}",
            daemon=True,
        )
        process.start()
        # The child's ends live in the child now; keeping parent copies
        # would defeat EOF detection and leak fds across respawns.
        task_r.close()
        result_w.close()
        self.supervisor.observe_spawn(slot, pid=process.pid)
        with self._pool_lock:
            old = self._handles.get(slot)
            if old is not None:
                self._close_handle(old)
            self._handles[slot] = _WorkerHandle(
                slot=slot,
                generation=generation,
                process=process,
                task_w=task_w,
                result_r=result_r,
            )
            self._pool_counters["spawns"] += 1
            if generation > 0:
                self.metrics.counter("pool_worker_restarts_total").inc()
        self.metrics.counter("pool_worker_spawns_total").inc()
        self._update_liveness_gauge()

    def _close_handle(self, handle: _WorkerHandle) -> None:
        for conn in (handle.task_w, handle.result_r):
            try:
                conn.close()
            except OSError:
                pass

    def _update_liveness_gauge(self) -> None:
        self.metrics.gauge("pool_live_workers").set(
            len(self.supervisor.live_slots())
        )

    # ------------------------------------------------------------------
    # Collector (single thread: results, heartbeats, exits, timers)
    # ------------------------------------------------------------------
    def _notify_collector(self) -> None:
        try:
            self._wake_w.send(b"")
        except OSError:
            pass

    def _collector_loop(self) -> None:
        """Run collector passes until stopped; never die silently.

        The collector is the only thread servicing results, worker
        exits, deadlines, and hedges — an unhandled exception here
        would strand every pending request forever.  A failed pass is
        counted and skipped; ``_COLLECTOR_FAILURE_LIMIT`` *consecutive*
        failures mean the loop itself is broken (not a transient), so
        the pool fails every open flight through the shed ladder and
        marks itself unhealthy instead of hanging its callers.
        """
        consecutive_failures = 0
        while not self._collector_stop.is_set():
            try:
                self._collector_pass()
                consecutive_failures = 0
            except Exception:  # noqa: BLE001 — the loop must survive
                consecutive_failures += 1
                with self._pool_lock:
                    self._pool_counters["collector_errors"] += 1
                self.metrics.counter("pool_collector_errors_total").inc()
                if consecutive_failures >= _COLLECTOR_FAILURE_LIMIT:
                    self._fail_open_flights("collector failed repeatedly")
                    return
                time.sleep(_POLL_SECONDS)

    def _collector_pass(self) -> None:
        with self._pool_lock:
            waitables: list = [self._wake_r]
            routes: dict = {}
            for handle in self._handles.values():
                waitables.append(handle.result_r)
                routes[handle.result_r] = ("pipe", handle)
                if not handle.reaped:
                    sentinel = handle.process.sentinel
                    waitables.append(sentinel)
                    routes[sentinel] = ("exit", handle)
        try:
            ready = connection.wait(waitables, timeout=_POLL_SECONDS)
        except OSError:
            ready = []
        for item in ready:
            if item is self._wake_r:
                try:
                    while self._wake_r.poll(0):
                        self._wake_r.recv()
                except (EOFError, OSError):
                    pass
                continue
            kind, handle = routes.get(item, (None, None))
            if kind == "pipe":
                self._drain_result_pipe(handle)
            elif kind == "exit":
                self._handle_worker_exit(handle)
        self._service_timers()

    def _fail_open_flights(self, reason: str) -> None:
        """Last resort: resolve everything in flight through the ladder.

        Called when the collector cannot continue.  Every open flight's
        unanswered request is completed degraded (or failed explicitly)
        so no caller is left blocked; :meth:`_flush` degrades later
        batches inline while :attr:`_collector_failed` stands.
        """
        with self._pool_lock:
            # Flag and sweep under one lock acquisition: _flush checks
            # the flag under this same lock when it files a flight, so
            # no flight can slip in between the sweep and the flag.
            self._collector_failed = True
            open_flights = [
                flight for flight in self._flights.values() if not flight.done
            ]
            for flight in open_flights:
                flight.done = True
            self._flights.clear()
            self._by_batch.clear()
            self._ready.clear()
        for flight in open_flights:
            for request in flight.requests:
                if not request.future.done():
                    self._complete_degraded(request, reason)

    def _drain_result_pipe(self, handle: _WorkerHandle) -> None:
        while True:
            try:
                if not handle.result_r.poll(0):
                    return
                message = handle.result_r.recv()
            except (EOFError, OSError):
                return
            self._handle_message(handle, message)

    def _handle_message(self, handle: _WorkerHandle, message: tuple) -> None:
        kind = message[0]
        if kind == "hb":
            self.supervisor.observe_heartbeat(handle.slot)
            self.metrics.counter("pool_heartbeats_total").inc()
            self._update_liveness_gauge()
        elif kind == "attached":
            _, slot, generation, epoch, restored = message
            handle.epoch = epoch
            self.supervisor.observe_heartbeat(slot)
            self.metrics.counter("pool_worker_attaches_total").inc()
            self._update_liveness_gauge()
            with self._pool_lock:
                self._pump_locked()
        elif kind == "swapped":
            _, slot, generation, epoch = message
            handle.epoch = epoch
            with self._pool_lock:
                self._maybe_retire_locked()
        elif kind == "result":
            _, batch_id, epoch, answers = message
            self._handle_result(handle, batch_id, epoch, answers)
        elif kind == "attach_error":
            # The worker exits right after reporting; the sentinel path
            # handles restart.  Record why for the chaos artifacts.
            self.metrics.counter("pool_attach_errors_total").inc()
        elif kind == "bye":
            handle.reaped = True

    def _handle_result(
        self, handle: _WorkerHandle, batch_id: int, epoch: int, answers: list
    ) -> None:
        with self._pool_lock:
            entry = self._by_batch.pop(batch_id, None)
            if handle.busy == batch_id:
                handle.busy = None
            if entry is None:
                self._pump_locked()
                return
            flight, _slot = entry
            flight.dispatches.pop(batch_id, None)
            if flight.done:
                # A hedge twin (or the deadline path) already answered.
                self._pump_locked()
                return
            flight.done = True
            if flight.hedged:
                self._pool_counters["hedge_wins"] += 1
                self.metrics.counter("pool_hedge_wins_total").inc()
            self._flights.pop(flight.flight_id, None)
            tokens = self._epoch_tokens.get(epoch, {})
            self._pump_locked()
        self._resolve_flight(flight, tokens, answers)
        with self._pool_lock:
            self._maybe_retire_locked()

    def _resolve_flight(
        self, flight: _Flight, epoch_tokens: dict, answers: list
    ) -> None:
        """Validate and publish one flight's worker answers."""
        to_cache = []
        to_resolve = []
        served = 0
        for request, answer in zip(flight.requests, answers):
            if answer[0] == "err":
                _, type_name, detail = answer
                if type_name == "InvalidQueryError":
                    from repro.errors import InvalidQueryError

                    request.future.set_exception(InvalidQueryError(detail))
                else:
                    self._complete_degraded(request, detail)
                continue
            if answer[0] == "defer":
                # The snapshot engine cannot serve this rung (missing
                # synopsis, or stale under a stale-forbidding policy);
                # the parent's live engine runs the full ladder.
                self._recompute_on_parent(request, reason="worker_deferred")
                continue
            _, estimate, synopsis_name, synopsis_words, degradation = answer
            column = (request.query.table, request.query.column)
            if epoch_tokens.get(column) != request.token:
                # The worker answered from a snapshot older (or newer)
                # than the state this request was admitted under; a
                # fresh tag would be a lie and a cache write would
                # poison future hits.  Recompute on the live engine.
                self._recompute_on_parent(request)
                continue
            result = QueryResult(
                query=request.query,
                estimate=estimate,
                exact=None,
                synopsis_name=synopsis_name,
                synopsis_words=synopsis_words,
                degradation=degradation,
            )
            to_cache.append((request.cache_key, request.token, result, None))
            to_resolve.append((request.future, result))
            served += 1
        if to_cache:
            self.cache.put_many(to_cache)
        if to_resolve:
            ServeFuture.resolve_batch(to_resolve)
        now = time.monotonic()
        self.metrics.histogram("serve_latency_seconds").observe_many(
            [max(now - request.enqueued_at, 0.0) for request in flight.requests]
        )
        with self._lock:
            self._counters["batches"] += 1
            self._counters["served"] += served
            self._last_batch_seconds = now - flight.created_at
        self.metrics.counter("serve_batches_total").inc()
        self.metrics.counter("serve_coalesced_total").inc(len(flight.requests))

    def _recompute_on_parent(
        self, request: PendingRequest, *, reason: str = "token_mismatch"
    ) -> None:
        """Answer one request on the live engine.

        Two callers: token mismatch (a mutation raced the request) and
        worker deferral (the snapshot engine lacks the rung).  The
        parent has the base tables, so this is the one place the full
        degradation ladder — and the server's ``audit_rate`` — applies;
        worker answers come from the frozen snapshot their build-time
        predictions already cover.
        """
        with self._pool_lock:
            self._pool_counters["parent_recomputed"] += 1
            if reason == "token_mismatch":
                self._pool_counters["token_mismatch_recomputed"] += 1
            else:
                self._pool_counters["worker_deferred"] += 1
        if reason == "token_mismatch":
            self.metrics.counter("pool_token_mismatches_total").inc()
        self.metrics.counter("pool_parent_recomputes_total", reason=reason).inc()
        try:
            result = self.engine.execute(
                request.query,
                on_stale=self.on_stale,
                audit_rate=self.audit_rate,
                degradation=self.policy,
            )
        except Exception as error:  # noqa: BLE001 — per-query isolation
            request.future.set_exception(error)
            return
        # Cache under a token re-read *before* this recompute would be
        # needed for validity; the admission token predates the mutation
        # that caused the mismatch, so skip the cache entirely.
        request.future.set_result(result)

    def _complete_degraded(self, request: PendingRequest, reason: str) -> None:
        """Finish one request through the shed ladder (never hang).

        This is the collector's last line of defence, so it must not
        raise: a shed-rung failure (an estimator error on the fallback
        rung, say) becomes the request's exception, never an escape
        that would kill the thread servicing every other request.
        """
        try:
            outcome, rung = self._shed_resolution(request.query, request.cache_key)
        except Exception as error:  # noqa: BLE001 — never kill the caller
            outcome, rung = error, "error"
        self.metrics.counter("pool_degraded_total", rung=rung).inc()
        if isinstance(outcome, BaseException):
            request.future.set_exception(outcome)
        else:
            request.future.set_result(outcome)

    # ------------------------------------------------------------------
    # Timers: supervision, deadlines, hedging, epoch retirement
    # ------------------------------------------------------------------
    def _service_timers(self) -> None:
        for action in self.supervisor.tick():
            if action.kind == ACTION_SPAWN and not (
                self._draining or self._collector_stop.is_set()
            ):
                self._spawn(action.slot)
            elif action.kind == ACTION_KILL:
                handle = self._handles.get(action.slot)
                if handle is not None and handle.process.is_alive():
                    with self._pool_lock:
                        self._pool_counters["kills"] += 1
                    self.metrics.counter("pool_worker_kills_total").inc()
                    handle.process.kill()
        self._update_liveness_gauge()
        now = time.monotonic()
        expired: list[_Flight] = []
        degrade_all = False
        with self._pool_lock:
            if self._ready and (
                self._all_slots_hopeless_locked()
                or (self._draining and not self.supervisor.live_slots())
            ):
                # Nothing will ever pick these flights up — every slot
                # is parked (crash-looping past its breaker), or we are
                # draining (no respawns) and the last worker died.
                # Degrade now rather than waiting out the deadline.
                degrade_all = True
            for flight in list(self._flights.values()):
                if flight.done:
                    continue
                if flight.deadline is not None and now >= flight.deadline:
                    flight.done = True
                    self._flights.pop(flight.flight_id, None)
                    for batch_id in list(flight.dispatches):
                        self._by_batch.pop(batch_id, None)
                    try:
                        self._ready.remove(flight)
                    except ValueError:
                        pass
                    expired.append(flight)
                    continue
                if (
                    self.hedge_seconds is not None
                    and not flight.hedged
                    and flight.dispatches
                    and now - flight.created_at >= self.hedge_seconds
                ):
                    slot = self._idle_live_slot_locked()
                    if slot is not None:
                        flight.hedged = True
                        self._pool_counters["hedges"] += 1
                        self.metrics.counter("pool_hedges_total").inc()
                        self._dispatch_locked(flight, slot)
            hopeless: list[_Flight] = []
            if degrade_all:
                while self._ready:
                    flight = self._ready.popleft()
                    if flight.done:
                        continue
                    flight.done = True
                    self._flights.pop(flight.flight_id, None)
                    hopeless.append(flight)
                    self._pool_counters["degraded_batches"] += 1
            self._pool_counters["deadline_expired"] += len(expired)
            self._maybe_retire_locked()
        for flight in expired:
            self.metrics.counter("pool_deadline_expired_total").inc()
            for request in flight.requests:
                if not request.future.done():
                    self._complete_degraded(request, "deadline expired")
        for flight in hopeless:
            for request in flight.requests:
                if not request.future.done():
                    self._complete_degraded(request, "no workers available")

    def _all_slots_hopeless_locked(self) -> bool:
        from repro.serving.supervisor import SLOT_PARKED

        return all(
            self.supervisor.state(slot) == SLOT_PARKED
            for slot in range(self.workers)
        )

    def _handle_worker_exit(self, handle: _WorkerHandle) -> None:
        if handle.reaped:
            return
        handle.reaped = True
        # Messages sent before death are still in the pipe — a worker
        # SIGKILLed *after* sending its result must not lose the batch.
        self._drain_result_pipe(handle)
        handle.process.join(timeout=1.0)
        exitcode = handle.process.exitcode
        self.supervisor.observe_exit(handle.slot, exitcode=exitcode)
        with self._pool_lock:
            self._pool_counters["worker_exits"] += 1
            self.metrics.counter(
                "pool_worker_exits_total", exitcode=str(exitcode)
            ).inc()
            stranded = None
            lost_batch = handle.busy
            handle.busy = None
            if lost_batch is not None and lost_batch != -1:
                entry = self._by_batch.pop(lost_batch, None)
                if entry is not None:
                    flight, _slot = entry
                    flight.dispatches.pop(lost_batch, None)
                    if not flight.done and not flight.dispatches:
                        stranded = flight
            if stranded is not None:
                if stranded.attempts <= self.max_retries:
                    # Retry-on-another-worker: front of the queue so the
                    # oldest work keeps its latency budget.
                    self._pool_counters["retries"] += 1
                    self.metrics.counter("pool_retries_total").inc()
                    self._ready.appendleft(stranded)
                else:
                    stranded.done = True
                    self._flights.pop(stranded.flight_id, None)
            self._pump_locked()
        self._update_liveness_gauge()
        if stranded is not None and stranded.done:
            with self._pool_lock:
                self._pool_counters["degraded_batches"] += 1
            for request in stranded.requests:
                if not request.future.done():
                    self._complete_degraded(
                        request, "retry budget exhausted after worker loss"
                    )

    def _has_open_flights(self) -> bool:
        with self._pool_lock:
            return any(not flight.done for flight in self._flights.values())

    def _maybe_retire_locked(self) -> None:
        """Unlink old epoch segments once no live worker still uses them."""
        current = self._current_epoch
        if current is None:
            return
        live_epochs = {
            handle.epoch
            for handle in self._handles.values()
            if handle.process.is_alive()
        }
        for epoch in list(self.shared.epochs()):
            if epoch == current.epoch:
                continue
            if epoch in live_epochs:
                continue
            self.shared.retire(epoch)
            # Keep the token map: results from that epoch may still be
            # in a pipe; tokens are tiny and cleared on drain.

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        counters = super().stats()
        with self._pool_lock:
            pool = dict(self._pool_counters)
            pool["workers"] = self.workers
            pool["live_workers"] = len(self.supervisor.live_slots())
            pool["current_epoch"] = (
                self._current_epoch.epoch if self._current_epoch else None
            )
            pool["inflight_flights"] = sum(
                1 for flight in self._flights.values() if not flight.done
            )
            pool["supervisor"] = self.supervisor.snapshot()
            pool["draining"] = self._draining
            pool["drain_was_clean"] = self._drain_clean
            pool["collector_failed"] = self._collector_failed
        counters["pool"] = pool
        return counters


__all__ = [
    "EXIT_ATTACH_FAILED",
    "EXIT_OK",
    "PoolServer",
]
