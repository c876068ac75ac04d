"""The four workloads: set-up, warm-up, measured rounds, checks.

Every workload builds the same catalog from the same seeded rows and
drives it in a closed loop:

* ``lookup``     -- one client, one scalar ``engine.execute`` at a time;
* ``serve``      -- two clients, 16-query blocks, in-process ``QueryServer``;
* ``serve_pool`` -- the same traffic through a two-worker ``PoolServer``;
* ``ingest``     -- one client cycling append -> stale reads -> refresh
  -> fresh reads through a ``QueryServer``.

Each tier runs at its default settings.  Timed figures are per-round
(see :mod:`rangebench.rounds`).  The read-only workloads also run a
write probe on a separate copy of the catalog, a few cycles between
segments of their measured phase, so every workload reports the write
path and the tier under test never sees a write.
"""

from __future__ import annotations

import collections
import ctypes
import gc
import math
import resource
import threading
import time

import numpy as np

from rangebench.checks import Checks
from rangebench.inputs import (
    AGGREGATES,
    Oracle,
    QuerySet,
    Spec,
    Traffic,
    aligned_set,
    append_batch,
    evaluation_set,
    initial_rows,
    random_queries,
    stream,
)
from rangebench.rounds import (
    best_per_segment,
    by_round,
    favourable,
    quartiles,
    round_rates,
    tail,
)
from rangebench.tracer import BUILD_PLANE, Tracer

ROUND_S = 0.25
WARMUP_S = 1.0
CLIENTS = 2
CHUNK_BLOCKS = 64
LOOKUP_CHUNK = 16
TIMEOUT_S = 30.0
#: The read-only workloads' measured phase is cut into segments of this
#: many rounds, with a few write-probe cycles after each, so the probe's
#: samples are spread over the whole run like the rounds are.
SEGMENT_ROUNDS = 8
PROBE_CYCLES_PER_SEGMENT = 6
INGEST_WARMUP_CYCLES = 4
INGEST_BLOCKS = 4
INGEST_ROUND_CYCLES = 4
#: The ingest workload's measured cycles per requested second: about one
#: second's worth here.  A fixed count (not a deadline) makes every run
#: append the same rows, so round ``r`` always sees the same table size.
INGEST_CYCLES_PER_S = 8
MIN_ROUNDS = 4
VERIFY_CHUNK = 4096
TABLE, COLUMN = "bench", "v"


class Run:
    """What one invocation measured and checked."""

    def __init__(self, spec: Spec, seed: int, seconds: float, traced: bool, started: float):
        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.started = started
        self.tracer = Tracer() if traced else None
        self.checks = Checks()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.layers: dict[str, float] = {}
        self.oracle: Oracle | None = None
        self.engine = None
        self.server = None
        self.make_query = None
        self._lock = threading.Lock()

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def count(self, failure: str | None = None) -> None:
        """One operation attempted; ``failure`` says why it failed."""
        with self._lock:
            self.attempted += 1
            if failure is not None:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(failure)

    def queries(self, qs: QuerySet) -> list:
        make = self.make_query
        return [
            make(TABLE, COLUMN, AGGREGATES[a], low, high)
            for a, low, high in zip(qs.aggs.tolist(), qs.lows.tolist(), qs.highs.tolist())
        ]

    def reference(self, qs: QuerySet) -> np.ndarray:
        """Direct ``engine.execute_batch`` answers for ``qs``."""
        out = np.empty(len(qs), dtype=np.float64)
        for start in range(0, len(qs), VERIFY_CHUNK):
            part = qs.take(slice(start, start + VERIFY_CHUNK))
            results = self.engine.execute_batch(self.queries(part), on_stale="serve")
            out[start : start + len(part)] = [r.estimate for r in results]
        return out

    def trace_round(self, index: int) -> None:
        """Odd rounds traced, even rounds not (no-op when untraced)."""
        if self.tracer is not None:
            if index % 2:
                self.tracer.install()
            else:
                self.tracer.uninstall()

    def untraced(self, rounds: list) -> list:
        return rounds if self.tracer is None else rounds[0::2]

    def traced(self, rounds: list) -> list:
        return [] if self.tracer is None else rounds[1::2]


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def set_up(run: Run, tier: str | None) -> None:
    """Raw rows -> ready to answer; ``setup_s`` counts from process start."""
    spec = run.spec
    rows = initial_rows(spec, run.seed)
    run.oracle = Oracle(spec, rows)
    begin = time.perf_counter()
    from repro.engine.engine import AggregateQuery
    from repro.serving import PoolServer, QueryServer

    imported = time.perf_counter()
    run.make_query = AggregateQuery
    if run.tracer is not None:
        run.tracer.install(BUILD_PLANE)
    engine = build_engine(spec, rows)
    built = time.perf_counter()
    run.engine = engine
    if tier == "server":
        run.server = QueryServer(engine).start()
    elif tier == "pool":
        run.server = PoolServer(engine).start()
        _wait_attached(run.server)
    ready = time.perf_counter()
    if run.tracer is not None:
        run.tracer.uninstall()
    run.metric("setup_s", ready - run.started, "s")
    run.layers["setup.import_s"] = imported - begin
    run.layers["setup.build_s"] = built - imported
    run.layers["setup.tier_s"] = ready - built


def build_engine(spec: Spec, rows: np.ndarray):
    """An engine holding ``rows`` as the baseline catalog."""
    from repro.engine.engine import ApproximateQueryEngine
    from repro.engine.table import Table

    engine = ApproximateQueryEngine()
    engine.register_table(Table(TABLE, {COLUMN: rows}))
    engine.build_synopsis(
        TABLE, COLUMN, method="sap1", budget_words=spec.budget_words, shards=spec.shards
    )
    return engine


def _wait_attached(server, timeout_s: float = 60.0) -> None:
    """Until every worker has attached the catalog and sent a heartbeat."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        slots = server.supervisor.snapshot().values()
        if sum(1 for slot in slots if slot["heartbeats"] >= 1) >= server.workers:
            return
        time.sleep(0.002)
    raise RuntimeError(f"pool workers did not attach within {timeout_s} s")


# ----------------------------------------------------------------------
# Answers and the checks on them
# ----------------------------------------------------------------------
class Answered:
    """Answers kept for the bitwise identity check (b).

    Small pieces are merged every few hundred, so the harness's own
    memory stays small and does not grow with the number of objects a
    fast run made.
    """

    MERGE_EVERY = 256

    def __init__(self) -> None:
        self.sets: list[QuerySet] = []
        self.estimates: list[np.ndarray] = []
        self._pending: list[tuple[QuerySet, np.ndarray]] = []

    def add(self, qs: QuerySet, estimates) -> None:
        self._pending.append((qs, np.asarray(estimates, dtype=np.float64)))
        if len(self._pending) >= self.MERGE_EVERY:
            self._merge()

    def absorb(self, other: "Answered") -> None:
        other._merge()
        self._merge()
        self.sets.extend(other.sets)
        self.estimates.extend(other.estimates)

    def _merge(self) -> None:
        if self._pending:
            self.sets.append(QuerySet.concat(qs for qs, _ in self._pending))
            self.estimates.append(np.concatenate([e for _, e in self._pending]))
            self._pending = []

    def __len__(self) -> int:
        self._merge()
        return sum(len(s) for s in self.sets)

    def verify(self, run: Run, what: str) -> None:
        self._merge()
        if self.sets:
            run.checks.same_bits(
                what, np.concatenate(self.estimates), run.reference(QuerySet.concat(self.sets))
            )


def submit_block(run: Run, queries, allowed=("fresh",)):
    """One request through the tier: ``(estimates, tags)`` or None if it failed.

    A request fails when it raises, times out, or any answer comes back
    on a rung other than ``allowed`` (shed or degraded).
    """
    try:
        futures = run.server.submit_many(queries)
        results = [future.result(TIMEOUT_S) for future in futures]
    except Exception as error:  # noqa: BLE001 -- any raise is a failed request
        run.count(f"{type(error).__name__}: {error}")
        return None
    tags = [r.degradation for r in results]
    degraded = [tag for tag in tags if tag not in allowed]
    run.count(f"answer degraded to {degraded[0]!r}" if degraded else None)
    if degraded:
        return None
    return np.fromiter((r.estimate for r in results), np.float64, len(results)), tags


def execute_scalar(run: Run, qs: QuerySet, samples: list | None = None):
    """``engine.execute`` per query: ``(estimates, tags)``; failures are NaN."""
    estimates = np.full(len(qs), np.nan)
    tags = []
    for i, query in enumerate(run.queries(qs)):
        t0 = time.perf_counter()
        try:
            result = run.engine.execute(query)
        except Exception as error:  # noqa: BLE001 -- a failed operation
            run.count(f"{type(error).__name__}: {error}")
            tags.append("error")
            continue
        t1 = time.perf_counter()
        degraded = result.degradation != "fresh"
        run.count(f"answer degraded to {result.degradation!r}" if degraded else None)
        estimates[i] = result.estimate
        tags.append(result.degradation)
        if samples is not None and not degraded:
            samples.append((t1, t1 - t0))
    return estimates, tags


def nrmse(estimates: np.ndarray, exact: np.ndarray, aggs: np.ndarray) -> float:
    """Mean over COUNT and SUM of RMS error divided by RMS exact answer.

    AVG is left out: it divides two independent estimates, so a single
    sparse range can put its answer far outside the range and the
    figure would follow that one query from seed to seed.
    """
    shares = []
    for code in (AGGREGATES.index("count"), AGGREGATES.index("sum")):
        mask = aggs == code
        error = np.sqrt(np.mean((estimates[mask] - exact[mask]) ** 2))
        shares.append(error / np.sqrt(np.mean(exact[mask] ** 2)))
    return float(np.mean(shares))


def check_accuracy(run: Run, answer, answered: Answered, expected: str = "fresh") -> None:
    """``answer_nrmse`` on the evaluation set, then the aligned check (a).

    ``answer(qs)`` returns ``(estimates, tags)`` or None.
    """
    evaluation = evaluation_set(run.spec)
    got = np.full(len(evaluation), np.nan)
    for start in range(0, len(evaluation), run.spec.block):
        part = evaluation.take(slice(start, start + run.spec.block))
        outcome = answer(part)
        if outcome is not None:
            got[start : start + len(part)] = outcome[0]
            run.checks.tags("evaluation set", outcome[1], expected)
            answered.add(part, outcome[0])
    exact = run.oracle.answers(evaluation)
    run.metric("answer_nrmse", nrmse(got, exact, evaluation.aggs), "ratio")
    check_aligned(run, answer, answered, expected)


def check_aligned(
    run: Run, answer, answered: Answered, expected: str = "fresh", oracle: Oracle | None = None
) -> None:
    """(a): shard-aligned ranges and the whole domain answer exactly.

    ``oracle`` holds the rows the answering engine holds (the run's by
    default).
    """
    oracle = run.oracle if oracle is None else oracle
    aligned = aligned_set(run.spec, run.seed)
    outcome = answer(aligned)
    if outcome is None:
        return
    run.checks.tags("aligned set", outcome[1], expected)
    run.checks.same_bits("aligned ranges vs exact", outcome[0], oracle.answers(aligned))
    run.checks.expect(
        outcome[0][0] == oracle.row_count,
        f"whole-domain COUNT {outcome[0][0]} != rows ingested {oracle.row_count}",
    )
    answered.add(aligned, outcome[0])


def peak_rss(run: Run) -> None:
    """Read once the tier holds its steady state: after warm-up on the
    read-only workloads (before the harness's own records grow with the
    run's throughput), after the fixed cycles on ``ingest``."""
    run.metric("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")


# ----------------------------------------------------------------------
# Figures
# ----------------------------------------------------------------------
def request_figures(run: Run, rounds: list[list[float]], rates: list[float]) -> None:
    """``request_p50_ms`` and ``queries_per_s`` from per-round samples.

    ``rounds`` holds each round's request latencies in seconds.  In a
    traced run the untraced rounds give the reference tail and the
    traced ones the overhead.
    """
    medians = [quartiles(r)[1] * 1e3 if r else float("nan") for r in rounds]
    plain = [m for m in run.untraced(medians) if not math.isnan(m)]
    run.metric("request_p50_ms", favourable(plain, "lower"), "ms")
    run.metric("queries_per_s", favourable(run.untraced(rates), "higher"), "queries/s")
    pct, value, n = tail([s * 1e3 for r in run.untraced(rounds) for s in r])
    run.layers["request_tail_ms"] = value
    run.layers["request_tail_pct"] = pct
    run.layers["request_samples"] = n
    traced = [m for m in run.traced(medians) if not math.isnan(m)]
    if traced and plain:
        run.layers["trace.overhead"] = quartiles(traced)[1] / quartiles(plain)[1] - 1.0


def server_layers(run: Run, stats: dict, requests: int) -> None:
    cache = stats["cache"]
    lookups = cache["hits"] + cache["misses"]
    run.layers["cache.hit_share"] = stats["cache_hits"] / stats["submitted"]
    run.layers["cache.invalidated"] = cache["invalidated"] / lookups if lookups else 0.0
    pool = stats.get("pool")
    if pool is not None:
        run.layers["pool.start_s"] = run.layers["setup.tier_s"]
        run.layers["pool.segment_bytes"] = run.server.shared.current.payload_bytes
        run.layers["pool.dispatched"] = pool["dispatched"] / requests
        run.layers["pool.retries"] = pool["retries"]
        run.layers["pool.parent_recomputed"] = pool["parent_recomputed"]


# ----------------------------------------------------------------------
# Write path
# ----------------------------------------------------------------------
def append(run: Run, cycle: int, engine=None, oracle: Oracle | None = None) -> float:
    """One timed ``append_rows`` (to the run's engine unless ``engine``)."""
    engine = run.engine if engine is None else engine
    oracle = run.oracle if oracle is None else oracle
    rows = append_batch(run.spec, run.seed, cycle)
    begin = time.perf_counter()
    engine.append_rows(TABLE, {COLUMN: rows})
    elapsed = time.perf_counter() - begin
    oracle.append(rows)
    run.count()
    return elapsed


def refresh(run: Run, engine=None) -> float:
    engine = run.engine if engine is None else engine
    begin = time.perf_counter()
    engine.refresh_stale()
    elapsed = time.perf_counter() - begin
    run.count()
    return elapsed


class WriteProbe:
    """Append -> refresh cycles for the read-only workloads.

    The probe writes to its own engine, built from the same rows after
    set-up, so the tier under test never sees a write and never answers
    stale.  Its cycles run a few at a time between segments of the
    measured phase, so their samples are spread over the whole run;
    ``append_p50_ms`` / ``refresh_p50_ms`` are the median over segments
    of each segment's fastest untraced cycle.  In a traced run the
    cycles alternate traced and untraced.  Before each cycle the harness
    hands its own freed memory back, so the program's large allocations
    meet the same heap whatever the read path left behind.
    """

    def __init__(self, run: Run) -> None:
        self.run = run
        rows = initial_rows(run.spec, run.seed)
        self.oracle = Oracle(run.spec, rows)
        self.engine = build_engine(run.spec, rows)
        self.done = 0
        #: Untraced cycle times (ms), one list per segment.
        self.appends: list[list[float]] = []
        self.refreshes: list[list[float]] = []

    def cycles(self, count: int) -> None:
        """One segment's cycles."""
        run = self.run
        appends, refreshes = [], []
        for _ in range(count):
            gc.collect()
            _trim_heap()
            run.trace_round(self.done)
            plain = run.tracer is None or not run.tracer.installed
            appended = append(run, self.done, self.engine, self.oracle) * 1e3
            refreshed = refresh(run, self.engine) * 1e3
            self.done += 1
            if plain:
                appends.append(appended)
                refreshes.append(refreshed)
        run.trace_round(0)
        self.appends.append(appends)
        self.refreshes.append(refreshes)

    def report(self) -> None:
        run = self.run

        def answer(qs):
            results = self.engine.execute_batch(run.queries(qs))
            return [r.estimate for r in results], [r.degradation for r in results]

        check_aligned(run, answer, Answered(), oracle=self.oracle)
        run.metric("append_p50_ms", best_per_segment(self.appends), "ms")
        run.metric("refresh_p50_ms", best_per_segment(self.refreshes), "ms")


def _trim_heap() -> None:
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):  # not glibc: nothing to hand back
        pass


def segments(run: Run):
    """``(first round index, rounds)`` of each segment of the measured phase."""
    rounds = max(MIN_ROUNDS, int(run.seconds / ROUND_S))
    for first in range(0, rounds, SEGMENT_ROUNDS):
        yield first, min(SEGMENT_ROUNDS, rounds - first)


# ----------------------------------------------------------------------
# lookup
# ----------------------------------------------------------------------
def lookup(run: Run) -> None:
    set_up(run, tier=None)
    answered = Answered()
    check_accuracy(run, lambda qs: execute_scalar(run, qs), answered)
    rng = stream(run.seed, 200)

    def loop(seconds: float, samples: list | None, first: int = 0) -> None:
        begin = time.perf_counter()
        index = -1
        while True:
            elapsed = time.perf_counter() - begin
            if elapsed >= seconds:
                return
            if samples is not None and int(elapsed / ROUND_S) != index:
                index = int(elapsed / ROUND_S)
                run.trace_round(first + index)
            qs = random_queries(run.spec, rng, LOOKUP_CHUNK)
            answered.add(qs, execute_scalar(run, qs, samples)[0])

    loop(WARMUP_S / 2, None)
    peak_rss(run)
    probe = WriteProbe(run)
    per_round, rates = [], []
    for first, rounds in segments(run):
        samples: list[tuple[float, float]] = []
        begin = time.perf_counter()
        loop(rounds * ROUND_S, samples, first)
        run.trace_round(0)
        per_round += by_round(samples, begin, ROUND_S, rounds)
        rates += round_rates([samples], begin, ROUND_S, rounds, 1)
        probe.cycles(PROBE_CYCLES_PER_SEGMENT)
    request_figures(run, per_round, rates)
    calls = run.engine.stats()["queries"]
    run.checks.expect(
        calls == len(answered),
        f"engine counted {calls} scalar queries, harness made {len(answered)}",
    )
    answered.verify(run, "scalar execute vs execute_batch")
    probe.report()


# ----------------------------------------------------------------------
# serve / serve_pool
# ----------------------------------------------------------------------
class Client:
    """One closed-loop client thread submitting 16-query blocks."""

    def __init__(self, run: Run, index: int) -> None:
        self.run = run
        self.index = index
        self.traffic = Traffic(run.spec, run.seed, index, CLIENTS)
        self.pending: collections.deque = collections.deque()
        self.samples: list[tuple[float, float]] = []  # (t_end, latency_s)
        self.answered = Answered()
        self.sent = 0
        self.requests = 0

    def _next(self):
        if not self.pending:
            for qs in self.traffic.blocks(CHUNK_BLOCKS):
                self.pending.append((qs, self.run.queries(qs)))
        return self.pending.popleft()

    def loop(self, stop: threading.Event, record: bool) -> None:
        tracer = self.run.tracer
        while not stop.is_set():
            qs, queries = self._next()
            self.requests += 1
            if tracer is not None:
                tracer.set_request(self.requests * CLIENTS + self.index)
            t0 = time.perf_counter()
            outcome = submit_block(self.run, queries)
            t1 = time.perf_counter()
            self.sent += len(queries)
            if outcome is not None:
                self.answered.add(qs, outcome[0])
                if record:
                    self.samples.append((t1, t1 - t0))


def drive(run: Run, clients: list[Client], rounds: int, record: bool, first: int = 0) -> float:
    """Run every client for ``rounds`` whole rounds; returns their start.

    ``first`` is the index of the first round within the measured phase.
    """
    stop = threading.Event()
    threads = [
        threading.Thread(target=c.loop, args=(stop, record), name=f"bench-client-{c.index}")
        for c in clients
    ]
    begin = time.perf_counter()
    for thread in threads:
        thread.start()
    for index in range(rounds):
        if record:
            run.trace_round(first + index)
        _sleep_until(begin + (index + 1) * ROUND_S)
    stop.set()
    for thread in threads:
        thread.join(TIMEOUT_S + 5.0)
        if thread.is_alive():
            raise RuntimeError(f"{thread.name} did not finish within its timeout")
    run.trace_round(0)
    return begin


def _sleep_until(when: float) -> None:
    while (left := when - time.perf_counter()) > 0:
        time.sleep(min(left, 0.05))


def serve(run: Run, tier: str = "server") -> None:
    set_up(run, tier=tier)
    answered = Answered()
    sent = 0

    def through_server(qs):
        nonlocal sent
        sent += len(qs)
        return submit_block(run, run.queries(qs))

    check_accuracy(run, through_server, answered)
    clients = [Client(run, index) for index in range(CLIENTS)]
    drive(run, clients, round(WARMUP_S / ROUND_S), record=False)
    peak_rss(run)
    probe = WriteProbe(run)
    per_round, rates = [], []
    for first, rounds in segments(run):
        for client in clients:
            client.samples = []
        begin = drive(run, clients, rounds, record=True, first=first)
        samples = [c.samples for c in clients]
        per_round += by_round([s for c in samples for s in c], begin, ROUND_S, rounds)
        rates += round_rates(samples, begin, ROUND_S, rounds, run.spec.block)
        probe.cycles(PROBE_CYCLES_PER_SEGMENT)
    request_figures(run, per_round, rates)

    for client in clients:
        sent += client.sent
        answered.absorb(client.answered)
    stats = run.server.stats()
    engine_batch = None if tier == "pool" else run.engine.stats()["batch_queries"]
    run.checks.server_counters(sent, stats, engine_batch_queries=engine_batch)
    server_layers(run, stats, requests=sum(c.requests for c in clients))
    answered.verify(run, f"{tier} answers vs execute_batch")
    run.server.stop()
    if tier == "pool":
        run.layers["pool.worker_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        )
    probe.report()


def serve_pool(run: Run) -> None:
    serve(run, tier="pool")


# ----------------------------------------------------------------------
# ingest
# ----------------------------------------------------------------------
class IngestClient:
    """The ingest workload's one client and its tallies."""

    def __init__(self, run: Run) -> None:
        self.run = run
        self.traffic = Traffic(run.spec, run.seed, 0, 1)
        self.sent = 0
        self.direct = 0
        self.cycles = 0

    def read(self, qs: QuerySet, expected: str, latencies: list | None):
        """One block through the server, tags checked (c)."""
        queries = self.run.queries(qs)
        t0 = time.perf_counter()
        outcome = submit_block(self.run, queries, allowed=("fresh", "stale"))
        latency = time.perf_counter() - t0
        self.sent += len(queries)
        if outcome is not None:
            self.run.checks.tags(f"ingest {expected} read", outcome[1], expected)
            if latencies is not None:
                latencies.append(latency)
        return outcome

    def verify(self, answered: Answered, what: str) -> float:
        """(b) against ``execute_batch`` now, before the catalog moves on.

        The reference calls are the harness's, not the workload's, so
        they are neither traced nor timed.
        """
        begin = time.perf_counter()
        tracer = self.run.tracer
        was_traced = tracer is not None and tracer.installed
        if was_traced:
            tracer.uninstall()
        answered.verify(self.run, what)
        if was_traced:
            tracer.install()
        self.direct += len(answered)
        return time.perf_counter() - begin

    def reads(self, expected: str, latencies: list | None) -> Answered:
        answered = Answered()
        for qs in self.traffic.blocks(INGEST_BLOCKS):
            outcome = self.read(qs, expected, latencies)
            if outcome is not None:
                answered.add(qs, outcome[0])
        return answered

    def cycle(self, figures: dict | None) -> None:
        """append -> stale reads -> refresh -> fresh reads + aligned block."""
        run = self.run
        latencies = figures["latency"] if figures is not None else None
        began = time.perf_counter()
        appended = append(run, self.cycles)
        self.cycles += 1
        stale = self.reads("stale", latencies)
        harness = self.verify(stale, "ingest stale answers vs execute_batch")
        refreshed = refresh(run)
        fresh = self.reads("fresh", latencies)
        check_aligned(run, lambda qs: self.read(qs, "fresh", latencies), fresh)
        harness += self.verify(fresh, "ingest fresh answers vs execute_batch")
        if figures is not None:
            figures["append"].append(appended * 1e3)
            figures["refresh"].append(refreshed * 1e3)
            figures["busy"] += time.perf_counter() - began - harness
            figures["queries"] += len(stale) + len(fresh)


def ingest(run: Run) -> None:
    set_up(run, tier="server")
    client = IngestClient(run)
    for _ in range(INGEST_WARMUP_CYCLES):
        client.cycle(None)
    evaluation = Answered()
    check_accuracy(run, lambda qs: client.read(qs, "fresh", None), evaluation)
    client.verify(evaluation, "ingest evaluation answers vs execute_batch")

    rounds: list[dict] = []
    cycles = max(MIN_ROUNDS * INGEST_ROUND_CYCLES, round(run.seconds * INGEST_CYCLES_PER_S))
    while len(rounds) * INGEST_ROUND_CYCLES < cycles:
        run.trace_round(len(rounds))
        figures = {"latency": [], "append": [], "refresh": [], "busy": 0.0, "queries": 0}
        for _ in range(INGEST_ROUND_CYCLES):
            client.cycle(figures)
        rounds.append(figures)
    run.trace_round(0)
    peak_rss(run)

    request_figures(
        run, [[s for s in r["latency"]] for r in rounds], [r["queries"] / r["busy"] for r in rounds]
    )
    for name, key in (("append_p50_ms", "append"), ("refresh_p50_ms", "refresh")):
        medians = [quartiles(r[key])[1] for r in run.untraced(rounds)]
        run.metric(name, favourable(medians, "lower"), "ms")
    stats = run.server.stats()
    run.checks.server_counters(
        client.sent, stats, engine_batch_queries=run.engine.stats()["batch_queries"] - client.direct
    )
    server_layers(run, stats, requests=0)
    run.server.stop()


WORKLOADS = {
    "lookup": lookup,
    "serve": serve,
    "serve_pool": serve_pool,
    "ingest": ingest,
}
