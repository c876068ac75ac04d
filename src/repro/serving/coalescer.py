"""Request coalescing — turning concurrent trickle into vectorised batches.

The engine's ``execute_batch`` answers a thousand range aggregates in a
handful of vectorised ``estimate_many`` calls, but concurrent clients
submit one query at a time.  The coalescer bridges the two: requests
accumulate in an ordered pending list, and a batch is released as soon
as either

* **size** — ``max_batch`` requests are waiting (a full vector is the
  cheapest thing the engine can do), or
* **age** — the oldest waiting request has been queued for
  ``max_delay_seconds`` (bounding the latency a lone query pays for the
  chance of sharing a batch).

With ``max_delay_seconds=0`` (the serving tier's default) this is group
commit as in storage engines: the consumer takes everything queued as
soon as it asks, so a batch is whatever arrived while it was busy with
the previous one, and an idle consumer answers a lone query at once.  A
positive window opts into holding a batch open until its oldest query
is that old, trading latency for fuller batches when arrivals trickle
in.  All decisions are O(1) and the structure is
thread-safe; blocking waits ride a condition variable so the server's
worker sleeps exactly until there is something to flush.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.errors import InvalidParameterError


class ServeFuture:
    """A slim future sized for tens of thousands of requests per second.

    :class:`concurrent.futures.Future` allocates a fresh
    ``Condition`` (and its ``RLock``) per instance — roughly 5 us each,
    which dominated the serve path when every query carries a future.
    ``ServeFuture`` instances instead share one class-level condition:
    construction is three attribute stores, a resolved future's
    ``result()`` is one attribute check, and a whole batch resolves
    under a single lock round via :meth:`resolve_batch`.

    The API is the useful subset of the stdlib future — ``result``,
    ``exception``, ``done``, ``set_result``, ``set_exception`` — with
    identical semantics (``result`` re-raises a stored exception and
    honours ``timeout``).
    """

    __slots__ = ("_result", "_exception", "_done")

    _cond = threading.Condition()

    def __init__(self) -> None:
        self._result = None
        self._exception = None
        self._done = False

    @classmethod
    def resolved(cls, result) -> "ServeFuture":
        """A future born completed (cache hits, shed answers)."""
        future = cls()
        future._result = result
        future._done = True
        return future

    def done(self) -> bool:
        return self._done

    def set_result(self, result) -> None:
        with ServeFuture._cond:
            self._result = result
            self._done = True
            ServeFuture._cond.notify_all()

    def set_exception(self, exception: BaseException) -> None:
        with ServeFuture._cond:
            self._exception = exception
            self._done = True
            ServeFuture._cond.notify_all()

    @classmethod
    def resolve_batch(cls, pairs) -> None:
        """Complete many ``(future, result)`` pairs, one lock, one wake."""
        with cls._cond:
            for future, result in pairs:
                future._result = result
                future._done = True
            cls._cond.notify_all()

    def result(self, timeout: float | None = None):
        if not self._done:
            with ServeFuture._cond:
                if not ServeFuture._cond.wait_for(lambda: self._done, timeout):
                    raise TimeoutError("request not answered within timeout")
        if self._exception is not None:
            raise self._exception
        return self._result

    def exception(self, timeout: float | None = None):
        if not self._done:
            with ServeFuture._cond:
                if not ServeFuture._cond.wait_for(lambda: self._done, timeout):
                    raise TimeoutError("request not answered within timeout")
        return self._exception


@dataclass
class PendingRequest:
    """One enqueued query awaiting its batch."""

    query: object
    future: ServeFuture = field(default_factory=ServeFuture)
    enqueued_at: float = 0.0
    #: Consistency token read at admission (pre-compute), stored so the
    #: flusher caches the eventual answer under the pre-answer state.
    token: tuple = ()
    cache_key: tuple = ()


class RequestCoalescer:
    """Accumulates pending requests and decides when to flush.

    ``clock`` is injectable (monotonic seconds) so the size/timeout
    policy is unit-testable without real sleeps.
    """

    def __init__(
        self,
        *,
        max_batch: int = 512,
        max_delay_seconds: float = 0.002,
        clock=time.monotonic,
    ) -> None:
        if max_batch < 1:
            raise InvalidParameterError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_seconds < 0:
            raise InvalidParameterError(
                f"max_delay_seconds must be >= 0, got {max_delay_seconds}"
            )
        self.max_batch = int(max_batch)
        self.max_delay_seconds = float(max_delay_seconds)
        self._clock = clock
        self._cond = threading.Condition()
        self._pending: list[PendingRequest] = []

    def __len__(self) -> int:
        return len(self._pending)

    def add(self, request: PendingRequest) -> int:
        """Enqueue one request; returns the new queue depth."""
        with self._cond:
            request.enqueued_at = self._clock()
            self._pending.append(request)
            self._cond.notify()
            return len(self._pending)

    def add_many(self, requests: list[PendingRequest]) -> int:
        """Enqueue several requests under one lock acquisition."""
        with self._cond:
            now = self._clock()
            for request in requests:
                request.enqueued_at = now
            self._pending.extend(requests)
            self._cond.notify()
            return len(self._pending)

    def oldest_age_seconds(self) -> float:
        """How long the oldest pending request has waited (0.0 when empty).

        Admission control uses it to derive ``retry_after_ms`` hints:
        the oldest request must flush within
        ``max_delay_seconds - oldest_age_seconds()``, and a drained
        queue is what reopens admission.
        """
        with self._cond:
            if not self._pending:
                return 0.0
            return max(0.0, self._clock() - self._pending[0].enqueued_at)

    def flush_due(self) -> bool:
        """Is a batch releasable right now (size or age trigger)?"""
        with self._cond:
            return self._due_locked()

    def _due_locked(self) -> bool:
        if not self._pending:
            return False
        if len(self._pending) >= self.max_batch:
            return True
        age = self._clock() - self._pending[0].enqueued_at
        return age >= self.max_delay_seconds

    def drain(self) -> list[PendingRequest]:
        """Take up to ``max_batch`` requests off the queue (oldest first)."""
        with self._cond:
            batch = self._pending[: self.max_batch]
            del self._pending[: len(batch)]
            return batch

    def drain_all(self) -> list[PendingRequest]:
        """Take *everything* — used at shutdown so no future is orphaned."""
        with self._cond:
            batch = self._pending
            self._pending = []
            return batch

    def next_batch(self, stop: threading.Event) -> list[PendingRequest]:
        """Block until a batch is due (or ``stop`` is set), then drain it.

        Returns an empty list only when stopping with nothing pending.
        The wait is precise: with pending requests the worker sleeps
        until the oldest one's delay deadline; idle it sleeps in short
        slices so a ``stop`` is honoured promptly even under injected
        clock skew.
        """
        with self._cond:
            while not stop.is_set():
                if self._pending:
                    if len(self._pending) >= self.max_batch:
                        break
                    deadline = (
                        self._pending[0].enqueued_at + self.max_delay_seconds
                    )
                    remaining = deadline - self._clock()
                    if remaining <= 0:
                        break
                    self._cond.wait(min(remaining, 0.05))
                else:
                    self._cond.wait(0.05)
            batch = self._pending[: self.max_batch]
            del self._pending[: len(batch)]
            return batch

    def wake(self) -> None:
        """Nudge a blocked :meth:`next_batch` (used on shutdown)."""
        with self._cond:
            self._cond.notify_all()
