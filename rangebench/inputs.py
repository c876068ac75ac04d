"""Seeded inputs for the benchmark, made apart from the program.

Everything the program receives -- the initial rows, every query, every
appended batch -- is generated here with numpy from the run's seed.
The generator keeps its own copy of every row it hands out
(:class:`Oracle`), so the exact answers the checks compare against never
come from the program under test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

AGGREGATES = ("count", "sum", "avg")

#: The value distribution and the evaluation set do not depend on
#: ``--seed``: only the sampled rows and the traffic do, so a metric's
#: spread across seeds is sampling noise, not a different problem.
SHAPE_SEED = 2001
EVAL_SEED = 20010521


@dataclass(frozen=True)
class Spec:
    """The catalog and traffic every workload runs on.

    The defaults are the baseline catalog: one column of 200,000 rows
    over a 4,096-value domain, summarised by SAP1 in 256 shards with
    4,096 words.  Tests shrink it.
    """

    rows: int = 200_000
    domain: int = 4096
    shards: int = 256
    budget_words: int = 4096
    zipf: float = 1.1
    block: int = 16
    hot_set: int = 512
    append_rows: int = 2000
    append_window: int = 256
    append_step: int = 64
    eval_queries: int = 3000
    aligned_checks: int = 13

    @property
    def shard_width(self) -> int:
        # The engine cuts the domain into equal-width shards when the
        # shard count divides it; the aligned checks rely on that.
        if self.domain % self.shards:
            raise ValueError("domain must be a multiple of the shard count")
        return self.domain // self.shards


def stream(seed: int, number: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), int(number)])


def value_weights(spec: Spec) -> np.ndarray:
    """Zipf weights over a fixed permutation of the domain (jagged skew)."""
    ranks = np.random.default_rng(SHAPE_SEED).permutation(spec.domain) + 1.0
    weights = ranks ** -spec.zipf
    return weights / weights.sum()


def initial_rows(spec: Spec, seed: int) -> np.ndarray:
    """The table's first ``spec.rows`` values; both domain ends are present."""
    values = stream(seed, 1).choice(spec.domain, size=spec.rows, p=value_weights(spec))
    values[0] = 0
    values[1] = spec.domain - 1
    return values.astype(np.int64)


def append_batch(spec: Spec, seed: int, cycle: int) -> np.ndarray:
    """Rows for one append: uniform in a window that moves every cycle."""
    span = spec.domain - spec.append_window + 1
    start = (cycle * spec.append_step) % span
    rng = stream(seed, 1000 + cycle)
    return rng.integers(start, start + spec.append_window, size=spec.append_rows)


@dataclass(frozen=True)
class QuerySet:
    """Parallel arrays of aggregate codes and inclusive value ranges."""

    aggs: np.ndarray
    lows: np.ndarray
    highs: np.ndarray

    def __len__(self) -> int:
        return int(self.aggs.size)

    def keys(self) -> np.ndarray:
        """One integer per distinct query."""
        return (self.aggs * (1 << 24) + self.lows) * (1 << 24) + self.highs

    def take(self, index) -> "QuerySet":
        return QuerySet(self.aggs[index], self.lows[index], self.highs[index])

    @staticmethod
    def concat(sets) -> "QuerySet":
        sets = list(sets)
        return QuerySet(
            np.concatenate([s.aggs for s in sets]),
            np.concatenate([s.lows for s in sets]),
            np.concatenate([s.highs for s in sets]),
        )


def random_queries(spec: Spec, rng: np.random.Generator, count: int) -> QuerySet:
    """Uniform endpoints (sorted), aggregates uniform over COUNT/SUM/AVG."""
    ends = np.sort(rng.integers(0, spec.domain, size=(count, 2)), axis=1)
    aggs = rng.integers(0, len(AGGREGATES), size=count)
    return QuerySet(aggs.astype(np.int64), ends[:, 0].copy(), ends[:, 1].copy())


def evaluation_set(spec: Spec) -> QuerySet:
    """The fixed accuracy set behind ``answer_nrmse`` (seed-independent)."""
    return random_queries(spec, np.random.default_rng(EVAL_SEED), spec.eval_queries)


def aligned_set(spec: Spec, seed: int, count: int | None = None) -> QuerySet:
    """The whole domain plus random shard-aligned ranges, every aggregate.

    Interior shards are answered from exact frozen totals, so each of
    these must come back exact.
    """
    count = spec.aligned_checks if count is None else count
    width = spec.shard_width
    rng = stream(seed, 7)
    first = rng.integers(0, spec.shards, size=count)
    end = first + 1 + (rng.random(count) * (spec.shards - first)).astype(np.int64)
    lows = np.concatenate(([0, 0, 0], first * width))
    highs = np.concatenate(([spec.domain - 1] * 3, end * width - 1))
    aggs = np.concatenate(([0, 1, 2], rng.integers(0, len(AGGREGATES), size=count)))
    return QuerySet(aggs.astype(np.int64), lows.astype(np.int64), highs.astype(np.int64))


class Traffic:
    """Block generator for the dashboard workloads.

    Half of each block comes from a hot set small enough for the answer
    cache; the other half are ranges never asked before.  Each client
    owns a disjoint slice of the never-repeating queries (by the parity
    of the range's high end), so two clients never share one either.
    """

    def __init__(self, spec: Spec, seed: int, client: int, clients: int) -> None:
        self.spec = spec
        self.client = client
        self.clients = clients
        self.hot = hot_set(spec, seed)
        self._rng = stream(seed, 100 + client)
        self._seen = set(self.hot.keys().tolist())

    def _fresh(self, count: int) -> QuerySet:
        picked: list[QuerySet] = []
        have = 0
        while have < count:
            candidates = random_queries(self.spec, self._rng, 2 * count * self.clients)
            keys = candidates.keys()
            mine = np.nonzero(candidates.highs % self.clients == self.client)[0]
            keep = []
            for index in mine.tolist():
                key = int(keys[index])
                if key not in self._seen:
                    self._seen.add(key)
                    keep.append(index)
            chosen = candidates.take(np.asarray(keep[: count - have], dtype=np.int64))
            picked.append(chosen)
            have += len(chosen)
        return QuerySet.concat(picked)

    def blocks(self, count: int) -> list[QuerySet]:
        """``count`` blocks, each half hot-set draws and half fresh ranges."""
        half = self.spec.block // 2
        fresh = self._fresh(count * (self.spec.block - half))
        hot = self.hot.take(self._rng.integers(0, len(self.hot), size=count * half))
        blocks = []
        for b in range(count):
            block = QuerySet.concat(
                [
                    hot.take(slice(b * half, (b + 1) * half)),
                    fresh.take(
                        slice(
                            b * (self.spec.block - half),
                            (b + 1) * (self.spec.block - half),
                        )
                    ),
                ]
            )
            blocks.append(block.take(self._rng.permutation(self.spec.block)))
        return blocks


def hot_set(spec: Spec, seed: int) -> QuerySet:
    """``spec.hot_set`` distinct queries that repeat throughout a run."""
    rng = stream(seed, 50)
    candidates = random_queries(spec, rng, 2 * spec.hot_set)
    _, first = np.unique(candidates.keys(), return_index=True)
    return candidates.take(np.sort(first)[: spec.hot_set])


class Oracle:
    """Exact COUNT/SUM/AVG from the benchmark's own copy of the rows."""

    def __init__(self, spec: Spec, rows: np.ndarray) -> None:
        self.spec = spec
        self.batches = [np.asarray(rows, dtype=np.int64).copy()]
        self._counts = np.bincount(self.batches[0], minlength=spec.domain)
        self._refresh()

    def append(self, rows: np.ndarray) -> None:
        rows = np.asarray(rows, dtype=np.int64).copy()
        self.batches.append(rows)
        self._counts = self._counts + np.bincount(rows, minlength=self.spec.domain)
        self._refresh()

    def _refresh(self) -> None:
        counts = self._counts.astype(np.int64)
        sums = counts * np.arange(self.spec.domain, dtype=np.int64)
        self._count_prefix = np.concatenate(([0], np.cumsum(counts)))
        self._sum_prefix = np.concatenate(([0], np.cumsum(sums)))

    @property
    def row_count(self) -> int:
        return int(sum(batch.size for batch in self.batches))

    def answers(self, queries: QuerySet) -> np.ndarray:
        counts = (
            self._count_prefix[queries.highs + 1] - self._count_prefix[queries.lows]
        ).astype(np.float64)
        sums = (
            self._sum_prefix[queries.highs + 1] - self._sum_prefix[queries.lows]
        ).astype(np.float64)
        avgs = np.divide(sums, counts, out=np.zeros_like(sums), where=counts > 0)
        return np.choose(queries.aggs, (counts, sums, avgs))
