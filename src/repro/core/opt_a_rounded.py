"""OPT-A-ROUNDED: the (1 + eps)-approximate OPT-A (Section 2.1.3).

Definition 3: round every array entry to a nearby multiple of ``x``
(arbitrarily or with unbiased randomisation), divide through by ``x``,
compute the OPT-A histogram of the result, and multiply through by
``x``.  The rounded instance's total mass — and with it the magnitude of
the DP's ``Lambda`` states — shrinks by a factor ``x``, so the
pseudo-polynomial dynamic program speeds up proportionally while the
histogram quality degrades by a bounded factor (Theorem 4).

The theorem's exact ``x``-from-``eps`` constant is not spelled out in
the paper; :func:`choose_rounding_parameter` derives one from the
perturbation analysis in its docstring, anchored to a cheap upper bound
on the optimal error.  Callers who know what they want can pass ``x``
directly.
"""

from __future__ import annotations

import numpy as np

from repro.core.a0 import build_a0
from repro.core.histogram import AverageHistogram
from repro.core.opt_a import DEFAULT_MAX_STATES, OptAResult, opt_a_search
from repro.errors import InvalidParameterError
from repro.internal.prefix import round_half_up
from repro.internal.validation import as_frequency_vector, check_bucket_count, check_positive
from repro.queries import evaluation


def round_to_multiples(data, x: int, mode: str = "arbitrary", seed=None) -> np.ndarray:
    """Round each entry to a multiple of ``x``.

    ``mode="arbitrary"`` rounds to the nearest multiple (the paper lets
    any nearby multiple be chosen); ``mode="randomized"`` rounds up with
    probability equal to the fractional part, which is unbiased and
    gives the sharper runtime of the paper's closing remark in 2.1.3.
    """
    data = np.asarray(data, dtype=np.float64)
    scaled = data / x
    if mode == "arbitrary":
        return round_half_up(scaled) * x
    if mode == "randomized":
        rng = np.random.default_rng(seed)
        floor = np.floor(scaled)
        frac = scaled - floor
        up = rng.random(scaled.shape) < frac
        return (floor + up) * x
    raise InvalidParameterError(f"mode must be 'arbitrary' or 'randomized', got {mode!r}")


def choose_rounding_parameter(data, n_buckets: int, epsilon: float) -> int:
    """Pick the rounding granularity ``x`` for a target quality loss ``eps``.

    Rounding entries by at most ``x/2`` perturbs any range sum by at
    most ``Delta = n * x / 2``, and hence any histogram's SSE by at most
    ``2 * Delta' * sqrt(R * SSE) + R * Delta'^2`` over the ``R = n(n+1)/2``
    ranges (Cauchy-Schwarz), with ``Delta' = 2 * Delta`` covering both the
    data and the estimate shifts.  Setting this to ``eps * E0 / 2`` for
    an upper bound ``E0 >= OPT`` (the A0 heuristic's true SSE) and
    solving the quadratic for ``x`` gives the value below; ``x`` is at
    least 1 (no-op) and the build degrades gracefully if the bound is
    loose.
    """
    data = as_frequency_vector(data)
    n = data.size
    n_buckets = check_bucket_count(n_buckets, n)
    epsilon = check_positive(epsilon, name="epsilon")
    heuristic = build_a0(np.round(data), n_buckets, rounding="per_piece")
    e0 = evaluation.sse(heuristic, np.round(data))
    if e0 <= 0.0:
        return 1
    r = n * (n + 1) / 2.0
    # Solve r*d^2 + 2*sqrt(r*e0)*d = eps*e0/2 for d = n*x (Delta').
    sqrt_re0 = np.sqrt(r * e0)
    d = (-2.0 * sqrt_re0 + np.sqrt(4.0 * r * e0 + 2.0 * r * epsilon * e0)) / (2.0 * r)
    return max(1, int(d / n))


def build_opt_a_rounded(
    data,
    n_buckets: int,
    *,
    x: int | None = None,
    epsilon: float | None = None,
    mode: str = "arbitrary",
    seed=None,
    rebuild: str = "original",
    max_states: int = DEFAULT_MAX_STATES,
) -> AverageHistogram:
    """Build the OPT-A-ROUNDED histogram (Definition 3, Theorem 4).

    Exactly one of ``x`` (the rounding granularity) or ``epsilon`` (a
    target quality-loss factor, from which ``x`` is derived) may be
    given; with neither, ``x = 1`` (plain OPT-A on rounded data).

    ``rebuild`` selects the stored values.  ``"scaled"`` is Definition 3
    verbatim: the rounded instance's averages multiplied by ``x``.  The
    default ``"original"`` keeps the boundaries the rounded DP found but
    stores the exact averages of the original data — it costs one O(n)
    pass and sidesteps the systematic bias deterministic rounding
    injects into the stored values (with half-up rounding and ``x = 2``,
    every odd count inflates by 1, which dominates the SSE on
    heavy-tailed data; see benchmarks/test_rounding_tradeoff.py for the
    measured gap).  Only boundary placement is then affected by the
    approximation.
    """
    data = as_frequency_vector(data)
    n = data.size
    n_buckets = check_bucket_count(n_buckets, n)
    if x is not None and epsilon is not None:
        raise InvalidParameterError("pass at most one of x and epsilon")
    if rebuild not in ("scaled", "original"):
        raise InvalidParameterError(f"rebuild must be 'scaled' or 'original', got {rebuild!r}")
    if x is None:
        x = choose_rounding_parameter(data, n_buckets, epsilon) if epsilon is not None else 1
    if not isinstance(x, (int, np.integer)) or x < 1:
        raise InvalidParameterError(f"x must be a positive integer, got {x!r}")
    x = int(x)

    reduced = round_to_multiples(data, x, mode=mode, seed=seed) / x
    result: OptAResult = opt_a_search(reduced, n_buckets, max_states=max_states)
    # x = 1 leaves integral data untouched: that IS exact OPT-A.
    label = "OPT-A" if x == 1 else "OPT-A-ROUNDED"
    if rebuild == "original":
        return AverageHistogram.from_boundaries(
            np.round(data), result.lefts, rounding="per_piece", label=label
        )
    return AverageHistogram(
        result.lefts,
        result.histogram.values * x,
        n,
        rounding="per_piece",
        label=label,
    )


#: Total mass below which the exact DP (x = 1) is attempted first.
#: Above it, the auto builder starts the ladder at mass/target — failed
#: pseudo-polynomial attempts are not free (each one explores millions
#: of states before hitting the cap), so skipping the doomed rungs is
#: what keeps the auto path interactive on heavy columns.
AUTO_MASS_TARGET = 10_000


def build_opt_a_auto(
    data,
    n_buckets: int,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    max_x: int = 1 << 20,
    initial_x: int | None = None,
    mode: str = "arbitrary",
    seed=None,
) -> AverageHistogram:
    """Exact OPT-A when it fits the state budget, else the coarsest-
    necessary OPT-A-ROUNDED.

    Starts the rounding ladder at ``initial_x`` (by default, the power
    of two bringing the total mass near :data:`AUTO_MASS_TARGET` —
    light data starts at the exact ``x = 1``) and doubles until the
    dynamic program fits ``max_states``.  This is the recommended entry
    point when the data's mass is unknown: small instances get the
    provable optimum, heavy instances degrade through Theorem 4's
    guarantee instead of failing or stalling.  Pass ``initial_x=1`` to
    force the exact attempt regardless of mass.
    """
    import numpy as np

    from repro.errors import BudgetExceededError

    if initial_x is None:
        mass = float(np.asarray(data, dtype=np.float64).sum())
        initial_x = 1
        while mass / initial_x > AUTO_MASS_TARGET:
            initial_x *= 2
    x = max(int(initial_x), 1)
    while True:
        try:
            return build_opt_a_rounded(
                data, n_buckets, x=x, mode=mode, seed=seed, max_states=max_states
            )
        except BudgetExceededError:
            x *= 2
            if x > max_x:
                raise
