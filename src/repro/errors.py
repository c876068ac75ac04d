"""Exception hierarchy for the :mod:`repro` library.

All errors raised by the library derive from :class:`ReproError`, so
callers can catch one type at an API boundary.  Subtypes distinguish
user-input problems from resource-budget problems so that an
approximate-query engine can, e.g., retry a synopsis build with a
coarser configuration when it sees :class:`BudgetExceededError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class InvalidDataError(ReproError, ValueError):
    """The input frequency vector is unusable (empty, negative, NaN...)."""


class InvalidParameterError(ReproError, ValueError):
    """A configuration parameter is out of its documented domain."""


class InvalidQueryError(ReproError, ValueError):
    """A range query's endpoints are malformed or out of bounds."""


class BudgetExceededError(ReproError):
    """A space or state budget cannot accommodate the requested build.

    Raised, for example, when the OPT-A dynamic program's sparse state
    table would exceed ``max_states`` (the documented remedy is to use
    :func:`repro.core.opt_a_rounded.build_opt_a_rounded` with a coarser
    rounding parameter), or when a synopsis does not fit in the word
    budget handed to the builder registry.
    """


class BuildTimeoutError(ReproError):
    """A cooperative build deadline expired inside a builder.

    Raised by the DP inner loops (OPT-A, the SAP interval DP, the
    rounded variants) when the ambient
    :class:`repro.internal.deadline.Deadline` is exceeded, so a build
    that would blow its time budget stops promptly instead of hanging.
    A :class:`repro.engine.resilience.FallbackChain` catches this and
    degrades to a cheaper builder.
    """


class BuildFailedError(ReproError):
    """One or more synopsis builds failed after exhausting their options.

    ``failures`` maps a human-readable key (``"table.column"`` for
    catalog builds, ``"method"`` for chain rungs) to the underlying
    exception, so callers can report a per-key error summary instead of
    losing everything to the first failure.
    """

    def __init__(self, message: str, failures: dict | None = None) -> None:
        super().__init__(message)
        self.failures: dict = dict(failures or {})


class FaultInjectedError(ReproError):
    """A deterministic fault injected by the chaos-testing harness.

    Only ever raised when a :class:`repro.internal.faults.FaultInjector`
    is active; production code paths never construct it themselves.
    """


class SerializationError(ReproError):
    """A synopsis byte-stream is corrupt or has an unsupported version."""


class ServerOverloadedError(ReproError):
    """Admission control refused a query and no shed rung could answer.

    Raised by :class:`repro.serving.QueryServer` when the pending queue
    is at ``max_pending`` and the degradation policy admits neither a
    stale cached answer nor the fallback estimator.  Clients should
    back off and retry; the server itself stays healthy.

    ``retry_after_ms`` is the server's best estimate of when capacity
    frees up (queue drain is what reopens admission): with a delay
    window, the time until the oldest queued batch must flush; without
    one (the default), the rest of the batch in flight plus one batch
    time per ``max_batch`` queued requests, timed from the server's
    recent batches.  ``None`` when the server cannot estimate (e.g. the
    refusal did not come from queue pressure).
    """

    def __init__(self, message: str, *, retry_after_ms: float | None = None) -> None:
        super().__init__(message)
        self.retry_after_ms = retry_after_ms


class ServerClosedError(ReproError):
    """A query was submitted to a server that is not running."""


class RefinementInvalidatedError(ReproError):
    """A progressive refinement's consistency token no longer validates.

    Raised by :class:`repro.serving.progressive.RefinementSession` when
    the catalog mutated (append, rebuild, staleness transition) between
    refinement stages.  The interval chain computed so far describes a
    table state that no longer exists, so the session refuses to
    publish further stages; callers restart from a fresh stage-0
    answer against the new token.
    """


class SQLSyntaxError(ReproError, ValueError):
    """The mini SQL dialect parser rejected a statement."""
