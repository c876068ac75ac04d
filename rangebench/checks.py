"""Correctness checks made apart from the program.

Exact answers come from :class:`rangebench.inputs.Oracle` (the
benchmark's own copy of the rows), reference answers from a direct
``engine.execute_batch`` call on the same catalog, and counters from the
harness's own tally of what it sent.  Each check only records what it
found; a run is correct when none found anything.
"""

from __future__ import annotations

import numpy as np


def unequal_bits(got, want) -> int:
    """How many answers differ from the reference, bit for bit."""
    got = np.ascontiguousarray(got, dtype=np.float64)
    want = np.ascontiguousarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return max(got.size, want.size)
    return int(np.count_nonzero(got.view(np.int64) != want.view(np.int64)))


class Checks:
    """Collects what the checks found; empty means the run was correct."""

    def __init__(self) -> None:
        self.problems: list[str] = []

    @property
    def correct(self) -> bool:
        return not self.problems

    def expect(self, condition: bool, problem: str) -> None:
        if not condition:
            self.problems.append(problem)

    def same_bits(self, what: str, got, want) -> None:
        """(a)/(b): answers equal their reference bit for bit."""
        differ = unequal_bits(got, want)
        self.expect(differ == 0, f"{what}: {differ} of {np.size(want)} answers differ")

    def tags(self, what: str, tags, expected: str) -> None:
        """(c): every answer carries the expected freshness tag."""
        wrong = sum(1 for tag in tags if tag != expected)
        self.expect(wrong == 0, f"{what}: {wrong} answers not tagged {expected!r}")

    def server_counters(
        self,
        sent: int,
        stats: dict,
        *,
        engine_batch_queries: int | None = None,
    ) -> None:
        """(d): the server's tallies agree with the harness's own.

        ``engine_batch_queries`` is the in-process engine's
        ``batch_queries`` minus the benchmark's direct reference calls;
        it must equal what the server says it served.  A pool answers on
        its workers, so it passes ``None`` and instead every enqueued
        query must have been served or recomputed on the parent.
        """
        self.expect(
            stats["submitted"] == sent,
            f"server counted {stats['submitted']} submitted, harness sent {sent}",
        )
        self.expect(
            stats["cache_hits"] + stats["enqueued"] == stats["submitted"],
            f"cache_hits {stats['cache_hits']} + enqueued {stats['enqueued']} "
            f"!= submitted {stats['submitted']}",
        )
        if engine_batch_queries is not None:
            self.expect(
                engine_batch_queries == stats["served"],
                f"engine batch_queries {engine_batch_queries} "
                f"!= served {stats['served']}",
            )
        else:
            answered = stats["served"] + stats["pool"]["parent_recomputed"]
            self.expect(
                answered == stats["enqueued"],
                f"pool served+recomputed {answered} != enqueued {stats['enqueued']}",
            )
