"""Deterministic fault injection for chaos testing.

Resilience claims are only as good as the faults they were tested
against.  A :class:`FaultInjector` holds a seeded set of rules —
fail / slow / corrupt, scoped to named *sites* with attribute matching —
and production code paths expose cheap hook points:

* :func:`fault_point` — may raise :class:`~repro.errors.FaultInjectedError`
  (``fail`` rules) or sleep (``slow`` rules, deadline-aware);
* :func:`transform_bytes` — may flip bits in a byte payload
  (``corrupt`` rules; persistence uses it on serialized blobs);
* ``kill`` rules terminate the *process* on the spot via ``os._exit``
  — indistinguishable from a SIGKILL to the parent, which is the point:
  the serving pool's worker processes use them to simulate hard crashes
  mid-batch.  Because forked workers copy rule state at fork time, a
  restarted worker would re-fire the same rule; kill rules therefore
  usually match on the worker's ``generation`` attribute (generation 0
  dies, its replacement lives).

Sites currently instrumented:

``builder``            every :func:`repro.core.builders.build_by_name` call
``shard_rebuild``      per-shard builds in :mod:`repro.engine.sharding`
``persistence_write``  :func:`repro.engine.persistence.save_catalog` I/O
``persistence_read``   :func:`repro.engine.persistence.load_catalog` I/O
``serve_flush``        :meth:`repro.serving.server.QueryServer` batch flush
``worker_batch``       pool worker per-batch execution (kill/slow targets)
``worker_heartbeat``   pool worker heartbeat emission (silence via slow)
``shared_attach``      shared-memory catalog attach in pool workers

When no injector is active (the production default) every hook is a
single global read — effectively free.  Determinism: rules draw from
one seeded generator in hook-call order, so a fixed workload replays
identically; hooks hit from concurrent threads arrive in no fixed order
and should use ``probability=1.0`` with a ``times`` budget rather than
coin flips.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.errors import FaultInjectedError, InvalidParameterError
from repro.internal.deadline import check_deadline

FAULT_MODES = ("fail", "slow", "corrupt", "kill")

#: Injected slowdowns sleep in slices this long so an ambient build
#: deadline interrupts a slow fault promptly (the 2x-deadline bound).
_SLEEP_SLICE_SECONDS = 0.005

#: Exit status used by ``kill`` rules — distinctive enough that a test
#: watching ``Process.exitcode`` can tell an injected kill from a real
#: crash (negative codes) or a clean exit (0).
_KILL_EXIT_CODE = 77


@dataclass
class FaultRule:
    """One armed fault: where it fires, how, and how often."""

    site: str
    mode: str
    match: dict = field(default_factory=dict)
    probability: float = 1.0
    times: int | None = None  # remaining firings; None = unlimited
    seconds: float = 0.0  # slow-mode sleep
    message: str = ""
    fired: int = 0

    def matches(self, site: str, attrs: dict) -> bool:
        if self.site != site:
            return False
        if self.times is not None and self.fired >= self.times:
            return False
        return all(attrs.get(key) == value for key, value in self.match.items())


class FaultInjector:
    """A seeded, inspectable set of fault rules.

    Use as a context manager (or call :meth:`activate`) to install the
    injector globally; every fired fault is appended to :attr:`events`
    as ``{"site", "mode", "attrs", "rule"}`` so chaos tests can assert
    exactly what happened.
    """

    def __init__(self, seed: int = 0, sleep=time.sleep) -> None:
        self._rng = np.random.default_rng(seed)
        self._sleep = sleep
        self.rules: list[FaultRule] = []
        self.events: list[dict] = []

    # -- rule builders -------------------------------------------------
    def _add(self, rule: FaultRule) -> FaultRule:
        if rule.mode not in FAULT_MODES:
            raise InvalidParameterError(
                f"fault mode must be one of {FAULT_MODES}, got {rule.mode!r}"
            )
        if not 0.0 <= rule.probability <= 1.0:
            raise InvalidParameterError(
                f"probability must be in [0, 1], got {rule.probability}"
            )
        self.rules.append(rule)
        return rule

    def fail(
        self,
        site: str,
        *,
        probability: float = 1.0,
        times: int | None = None,
        message: str = "",
        **match,
    ) -> FaultRule:
        """Arm a rule raising :class:`FaultInjectedError` at ``site``."""
        return self._add(
            FaultRule(
                site=site,
                mode="fail",
                match=match,
                probability=probability,
                times=times,
                message=message,
            )
        )

    def slow(
        self,
        site: str,
        seconds: float,
        *,
        probability: float = 1.0,
        times: int | None = None,
        **match,
    ) -> FaultRule:
        """Arm a rule sleeping ``seconds`` at ``site`` (deadline-aware)."""
        if seconds < 0:
            raise InvalidParameterError(f"slowdown must be >= 0, got {seconds}")
        return self._add(
            FaultRule(
                site=site,
                mode="slow",
                match=match,
                probability=probability,
                times=times,
                seconds=float(seconds),
            )
        )

    def corrupt(
        self,
        site: str,
        *,
        probability: float = 1.0,
        times: int | None = None,
        **match,
    ) -> FaultRule:
        """Arm a rule flipping bits in byte payloads at ``site``."""
        return self._add(
            FaultRule(
                site=site,
                mode="corrupt",
                match=match,
                probability=probability,
                times=times,
            )
        )

    def kill(
        self,
        site: str,
        *,
        probability: float = 1.0,
        times: int | None = None,
        **match,
    ) -> FaultRule:
        """Arm a rule hard-terminating the current process at ``site``.

        Fires ``os._exit`` — no cleanup handlers, no exception
        propagation — so the parent sees the same thing a SIGKILL
        produces: a dead child with unflushed pipes.  Only meaningful
        inside pool worker processes; match on ``generation=0`` so the
        supervisor's replacement worker survives.
        """
        return self._add(
            FaultRule(
                site=site,
                mode="kill",
                match=match,
                probability=probability,
                times=times,
            )
        )

    # -- firing --------------------------------------------------------
    def _roll(self, rule: FaultRule) -> bool:
        if rule.probability >= 1.0:
            return True
        return float(self._rng.random()) < rule.probability

    def _record(self, rule: FaultRule, site: str, attrs: dict) -> None:
        rule.fired += 1
        self.events.append(
            {"site": site, "mode": rule.mode, "attrs": dict(attrs), "rule": rule}
        )

    def event_counts(self) -> dict[str, int]:
        """Fired-event tally keyed by ``"site:mode"``."""
        counts: dict[str, int] = {}
        for event in self.events:
            key = f"{event['site']}:{event['mode']}"
            counts[key] = counts.get(key, 0) + 1
        return counts

    def on_point(self, site: str, attrs: dict) -> None:
        """Hook body for :func:`fault_point`."""
        for rule in self.rules:
            if rule.mode == "corrupt" or not rule.matches(site, attrs):
                continue
            if not self._roll(rule):
                continue
            self._record(rule, site, attrs)
            if rule.mode == "kill":
                os._exit(_KILL_EXIT_CODE)
            if rule.mode == "fail":
                detail = rule.message or f"injected fault at {site} ({attrs})"
                raise FaultInjectedError(detail)
            remaining = rule.seconds
            while remaining > 0:
                check_deadline(f"injected slowdown at {site}")
                slice_ = min(remaining, _SLEEP_SLICE_SECONDS)
                self._sleep(slice_)
                remaining -= slice_
            check_deadline(f"injected slowdown at {site}")

    def on_bytes(self, site: str, data: bytes, attrs: dict) -> bytes:
        """Hook body for :func:`transform_bytes`."""
        for rule in self.rules:
            if rule.mode != "corrupt" or not rule.matches(site, attrs):
                continue
            if not self._roll(rule):
                continue
            self._record(rule, site, attrs)
            if not data:
                continue
            corrupted = bytearray(data)
            flips = max(1, len(corrupted) // 64)
            positions = self._rng.integers(0, len(corrupted), size=flips)
            masks = self._rng.integers(1, 256, size=flips)
            for position, mask in zip(positions.tolist(), masks.tolist()):
                corrupted[position] ^= mask
            data = bytes(corrupted)
        return data

    # -- activation ----------------------------------------------------
    def activate(self):
        """Install globally; returns a context manager."""
        return _activation(self)

    def __enter__(self) -> "FaultInjector":
        _install(self)
        return self

    def __exit__(self, *exc_info) -> None:
        _uninstall(self)


_lock = threading.Lock()
_active: FaultInjector | None = None


def _install(injector: FaultInjector) -> None:
    global _active
    with _lock:
        if _active is not None and _active is not injector:
            raise InvalidParameterError(
                "another FaultInjector is already active; deactivate it first"
            )
        _active = injector


def _uninstall(injector: FaultInjector) -> None:
    global _active
    with _lock:
        if _active is injector:
            _active = None


@contextmanager
def _activation(injector: FaultInjector):
    _install(injector)
    try:
        yield injector
    finally:
        _uninstall(injector)


def active_injector() -> FaultInjector | None:
    return _active


def fault_point(site: str, **attrs) -> None:
    """Production hook: may raise or sleep when an injector is active."""
    injector = _active
    if injector is not None:
        injector.on_point(site, attrs)


def transform_bytes(site: str, data: bytes, **attrs) -> bytes:
    """Production hook: may corrupt ``data`` when an injector is active."""
    injector = _active
    if injector is not None:
        return injector.on_bytes(site, data, attrs)
    return data
