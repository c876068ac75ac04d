"""Traced runs: spans around each layer's public entry points.

The tracer patches the program's classes from the benchmark's own files;
nothing in the program knows it is traced.  Each wrapped call records a
span -- name, start, end, parent span, the request it served, and how
many queries it carried -- in memory, and :meth:`Tracer.write` saves
them when the run ends.  A span's parent is the innermost traced call
on the same thread; a request id set by the client thread travels with
its enqueued queries through the coalescer to the server thread, so
server-side spans name the client requests they served.

Spans are only recorded while the wrappers are installed, so a traced
run alternates traced and untraced rounds and reports its own overhead
as the ratio of their latencies.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time

_MISSING = object()

#: ``(span name, module, owner class or None for a module function,
#: attribute, kind, position of the argument carrying the query count)``.
#: ``build_by_name`` is looked up by name in two modules, so it is
#: patched in both.
SPAN_TARGETS = (
    ("engine.execute", "repro.engine.engine", "ApproximateQueryEngine", "execute", "method", None),
    ("engine.execute_batch", "repro.engine.engine", "ApproximateQueryEngine", "execute_batch", "method", 1),
    ("engine.append_rows", "repro.engine.engine", "ApproximateQueryEngine", "append_rows", "method", None),
    ("engine.refresh_stale", "repro.engine.engine", "ApproximateQueryEngine", "refresh_stale", "method", None),
    ("sharding.estimate_many", "repro.engine.sharding", "ShardedSynopsis", "estimate_many", "method", 1),
    ("shard_tree.range_sum_many", "repro.engine.shard_tree", "DyadicShardTree", "range_sum_many", "method", 1),
    ("estimator.estimate_many", "repro.core.histogram", "SapHistogram", "estimate_many", "method", 1),
    ("cache.get_many", "repro.serving.answer_cache", "AnswerCache", "get_many", "method", 1),
    ("cache.put_many", "repro.serving.answer_cache", "AnswerCache", "put_many", "method", 1),
    ("server.submit_many", "repro.serving.server", "QueryServer", "submit_many", "method", 1),
    ("core.build_by_name", "repro.engine.sharding", None, "build_by_name", "function", None),
    ("core.build_by_name", "repro.engine.engine", None, "build_by_name", "function", None),
    ("column.from_values", "repro.engine.column", "ColumnStatistics", "from_values", "classmethod", None),
    ("shared_catalog.publish", "repro.serving.shared_catalog", "SharedCatalog", "publish", "method", None),
)

#: Wrappers that may be in place while pool workers fork: the workers
#: never call them, so they cannot carry tracing into another process.
BUILD_PLANE = (
    "engine.append_rows",
    "engine.refresh_stale",
    "core.build_by_name",
    "column.from_values",
    "shared_catalog.publish",
)


def _size(args, position):
    if position is None:
        return 0
    try:
        return len(args[position])
    except TypeError:
        return 1


class Tracer:
    """In-memory spans plus the coalescer and round-trip observations."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: ``(id, name, start, end, parent, request, size, thread)``
        self.spans: list[tuple] = []
        self.coalescer_waits: list[float] = []
        self.batch_sizes: list[int] = []
        self.roundtrips: list[float] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._released: dict[int, float] = {}
        self._patches: list[tuple] = []

    # -- request context ---------------------------------------------
    def set_request(self, request) -> None:
        """Tag this thread's next calls with one client request id."""
        self._local.request = request

    # -- patching ------------------------------------------------------
    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def install(self, names=None) -> None:
        """Put the wrappers in place (all of them, or only ``names``)."""
        import importlib

        if self._patches:
            return
        for name, module_name, owner_name, attr, kind, size in SPAN_TARGETS:
            if names is not None and name not in names:
                continue
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            self._patch(owner, attr, self._span(name, owner, attr, kind, size), kind)
        if names is None:
            self._install_hooks()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, replacement, kind) -> None:
        original = (
            owner.__dict__.get(attr, _MISSING)
            if isinstance(owner, type)
            else getattr(owner, attr)
        )
        self._patches.append((owner, attr, original))
        setattr(owner, attr, classmethod(replacement) if kind == "classmethod" else replacement)

    def _span(self, name, owner, attr, kind, size_arg):
        fn = getattr(owner, attr)
        if kind == "classmethod":
            fn = fn.__func__
        tracer = self
        local = self._local
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append(
                    (
                        span_id,
                        name,
                        start,
                        end,
                        parent,
                        getattr(local, "request", None),
                        _size(args, size_arg),
                        threading.get_ident(),
                    )
                )

        return traced

    def _install_hooks(self) -> None:
        from repro.serving.coalescer import RequestCoalescer, ServeFuture

        tracer = self
        local = self._local
        add_many = RequestCoalescer.add_many
        next_batch = RequestCoalescer.next_batch
        resolve_batch = ServeFuture.resolve_batch.__func__

        def traced_add_many(coalescer, requests):
            request = getattr(local, "request", None)
            for pending in requests:
                pending.bench_request = request
            return add_many(coalescer, requests)

        def traced_next_batch(coalescer, stop):
            batch = next_batch(coalescer, stop)
            if batch:
                released = time.monotonic()
                tracer.coalescer_waits.extend(
                    released - pending.enqueued_at for pending in batch
                )
                tracer.batch_sizes.append(len(batch))
                now = tracer.clock()
                for pending in batch:
                    tracer._released[id(pending.future)] = now
                # The server thread works for these requests until its
                # next batch; its spans carry their ids.
                local.request = tuple(
                    sorted({getattr(p, "bench_request", None) or 0 for p in batch})
                )
            return batch

        def traced_resolve_batch(cls, pairs):
            pairs = list(pairs)
            result = resolve_batch(cls, pairs)
            now = tracer.clock()
            released = [tracer._released.pop(id(future), None) for future, _ in pairs]
            released = [t for t in released if t is not None]
            if released:
                tracer.roundtrips.append(now - min(released))
            return result

        self._patch(RequestCoalescer, "add_many", traced_add_many, "method")
        self._patch(RequestCoalescer, "next_batch", traced_next_batch, "method")
        self._patch(ServeFuture, "resolve_batch", traced_resolve_batch, "classmethod")

    # -- output ----------------------------------------------------------
    def write(self, path) -> None:
        """Save the spans as JSON lines: a header naming the fields, then
        one array per span."""
        fields = ["id", "name", "start", "end", "parent", "request", "size", "thread"]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": fields}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer figures from the recorded spans (see README)."""
        by_name: dict[str, list[tuple]] = {}
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            by_name.setdefault(span[1], []).append(span)
            if span[4]:
                children.setdefault(span[4], []).append((span[2], span[3]))

        def durations(name, scale):
            return [(s[3] - s[2]) * scale for s in by_name.get(name, [])]

        def self_times(name, scale):
            return [
                (s[3] - s[2] - _covered(children.get(s[0], ()), s[2], s[3])) * scale
                for s in by_name.get(name, [])
            ]

        def median(values):
            return statistics.median(values) if values else 0.0

        def ratio(numerator, denominator):
            return numerator / denominator if denominator else 0.0

        sharded = by_name.get("sharding.estimate_many", [])
        sharded_ids = {s[0] for s in sharded}
        sharded_queries = sum(s[6] for s in sharded)
        partials = [s for s in by_name.get("estimator.estimate_many", []) if s[4] in sharded_ids]
        refreshes = by_name.get("engine.refresh_stale", [])
        refresh_ids = {s[0] for s in refreshes}
        refresh_builds = [s for s in by_name.get("core.build_by_name", []) if s[4] in refresh_ids]
        requests = len(by_name.get("server.submit_many", []))
        return {
            "engine.execute_us": median(durations("engine.execute", 1e6)),
            "engine.execute_self_us": median(self_times("engine.execute", 1e6)),
            "engine.batch_ms": median(durations("engine.execute_batch", 1e3)),
            "engine.batch_self_ms": median(self_times("engine.execute_batch", 1e3)),
            "engine.batch_calls": ratio(len(by_name.get("engine.execute_batch", [])), requests),
            "sharding.estimate_us": median(durations("sharding.estimate_many", 1e6)),
            "sharding.self_us": median(self_times("sharding.estimate_many", 1e6)),
            "sharding.partials_per_query": ratio(sum(s[6] for s in partials), sharded_queries),
            "shard_tree.range_sum_us": median(durations("shard_tree.range_sum_many", 1e6)),
            "estimator.estimate_us": median([(s[3] - s[2]) * 1e6 for s in partials]),
            "estimator.calls_per_query": ratio(len(partials), sharded_queries),
            "server.admit_us": median(durations("server.submit_many", 1e6)),
            "coalescer.wait_ms": median([w * 1e3 for w in self.coalescer_waits]),
            "coalescer.batches": ratio(len(self.batch_sizes), requests),
            "coalescer.batch_size": ratio(sum(self.batch_sizes), len(self.batch_sizes)),
            "cache.get_us": median(durations("cache.get_many", 1e6)),
            "cache.put_us": median(durations("cache.put_many", 1e6)),
            "pool.publish_ms": median(durations("shared_catalog.publish", 1e3)),
            "pool.roundtrip_ms": median([r * 1e3 for r in self.roundtrips]),
            "engine.append_ms": median(durations("engine.append_rows", 1e3)),
            "engine.refresh_self_ms": median(self_times("engine.refresh_stale", 1e3)),
            "column.stats_ms": median(durations("column.from_values", 1e3)),
            "core.shard_builds": ratio(len(refresh_builds), len(refreshes)),
            "core.shard_build_ms": median([(s[3] - s[2]) * 1e3 for s in refresh_builds]),
        }


def _covered(intervals, start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0.0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            covered += high - low
            reach = high
    return covered
