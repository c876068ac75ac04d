"""Run statistics chosen to survive this class of machine's speed spells.

A fixed pure-Python loop runs up to twice as slow in some spells as in
others, for seconds at a time.  A run's total, or any one-off timing,
inherits whichever spell it fell in.  So each run is cut into short
rounds; each round gets its own median latency and its own rate, and
the run reports the decile of rounds that favours the program: the
lower decile of per-round medians for times, the upper decile of
per-round rates.  Slow spells then have to cover nine tenths of a run
before they move its figure.  The write probe's cycles, a few after
each segment of the measured phase, are reported by
:func:`best_per_segment` instead.
"""

from __future__ import annotations

import math
import statistics


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    values = [float(v) for v in values]
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def favourable(values, better: str) -> float:
    """The decile of per-round figures that favours the program."""
    values = [float(v) for v in values]
    if len(values) == 1:
        return values[0]
    deciles = statistics.quantiles(values, n=10)
    return deciles[0] if better == "lower" else deciles[-1]


def best_per_segment(segments) -> float:
    """The median over segments of each segment's fastest sample.

    The write probe runs a few cycles after each segment of the measured
    phase.  A segment's fastest cycle skips a spell shorter than the
    segment, and the median over segments skips spells that cover up to
    half of them.  The probe's table grows with every cycle, so the
    median also keeps to the mid-run table size, where a low quantile of
    all cycles would slide along that growth with wherever spells fell.
    """
    return statistics.median(min(segment) for segment in segments if segment)


def by_round(samples, start: float, round_s: float, rounds: int) -> list[list]:
    """Bucket ``(t_end, value)`` samples into ``rounds`` windows of ``round_s``.

    Samples finishing outside ``[start, start + rounds * round_s)`` are
    dropped, so every kept round is a whole window.
    """
    buckets: list[list] = [[] for _ in range(rounds)]
    for t_end, value in samples:
        index = math.floor((t_end - start) / round_s)
        if 0 <= index < rounds:
            buckets[index].append(value)
    return buckets


def round_rates(clients, start: float, round_s: float, rounds: int, per_request: int) -> list[float]:
    """Per-round throughput of closed-loop clients.

    ``clients`` holds each client's ``(t_end, latency)`` samples.  A
    client's rate in a round is its completions there, less one, over
    the time from its first to its last completion -- a continuous
    figure, where completions per window would move in whole requests.
    """
    rates = [0.0] * rounds
    for samples in clients:
        ends = by_round([(t_end, t_end) for t_end, _ in samples], start, round_s, rounds)
        for index, bucket in enumerate(ends):
            if len(bucket) >= 2:
                rates[index] += (len(bucket) - 1) * per_request / (bucket[-1] - bucket[0])
    return rates


def tail(samples) -> tuple[float, float, int]:
    """``(percentile, value, n)``: the highest of p99.9/p99/p90/p50 with
    at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    pct = next((p for p in (99.9, 99.0, 90.0) if n * (100.0 - p) / 100.0 >= 10), 50.0)
    if n == 0:
        return pct, 0.0, 0
    rank = min(n - 1, max(0, math.ceil(pct / 100.0 * n) - 1))
    return pct, float(ordered[rank]), n
