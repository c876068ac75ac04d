"""Sharded synopses: partitioned domains with mergeable range answers.

The ROADMAP's next scaling axis.  A :class:`ShardedSynopsis` partitions
a column's frequency-vector domain ``[0, n)`` into ``S`` contiguous
shards, builds an independent synopsis per shard (any builder from
:data:`repro.core.builders.BUILDER_REGISTRY`, with the word budget split
across shards proportionally to per-shard mass), and answers a range sum
``s[a, b]`` by the paper's own decomposition identity
(``s[a, b] = P[b] - P[a - 1]``, Section 2):

    s[a, b]  =  sum of exact totals of fully-covered interior shards
              + estimated partial sums from the <= 2 boundary shards

Shard-aligned cuts therefore answer *exactly* (no interior error, no
partials), and an arbitrary range pays only the usual synopsis error
inside the at-most-two boundary shards.  Because the class implements
the :class:`~repro.queries.estimators.RangeSumEstimator` protocol, it
drops into every existing engine path — the query path behind
``execute`` and ``execute_batch``, quantile inversion, and the online
auditor — unchanged.

The payoff beyond accuracy is *incremental maintenance*: appends that
touch only some shards dirty only those shards, and the engine rebuilds
exactly the dirty ones (see
:meth:`repro.engine.engine.ApproximateQueryEngine.refresh_stale`),
turning the O(n^2 B)-per-column rebuild cliff of the OPT-A/SAP DPs into
an O((n/S)^2 B)-per-dirty-shard cost.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.builders import (
    BUILDER_REGISTRY,
    build_by_name,
    build_units,
    merge_shard_budgets,
    predict_sse_per_query,
    split_budget_by_mass,
)
from repro.engine.shard_tree import DyadicShardTree
from repro.errors import InvalidParameterError
from repro.internal.faults import fault_point
from repro.queries.estimators import RangeSumEstimator

#: Interior-answering modes: ``"tree"`` resolves fully-covered shards
#: through the :class:`~repro.engine.shard_tree.DyadicShardTree`
#: (O(log S) per query, O(log S) maintenance per rebuilt shard);
#: ``"flat"`` keeps the legacy cumulative-prefix array (O(S) to rebuild
#: on every refresh).  Answers are bit-identical on integer-valued
#: totals — the differential suites pin that.
INTERIOR_MODES = ("tree", "flat")


def shard_boundaries(n: int, shards: int) -> np.ndarray:
    """Start offsets of ``shards`` contiguous, non-empty partitions of
    ``[0, n)``: an ``int64`` array of length ``shards + 1`` with
    ``starts[0] == 0`` and ``starts[-1] == n``.
    """
    if n < 1:
        raise InvalidParameterError(f"domain size must be >= 1, got {n}")
    if shards < 1:
        raise InvalidParameterError(f"shards must be >= 1, got {shards}")
    shards = min(int(shards), int(n))
    return (np.arange(shards + 1, dtype=np.int64) * n) // shards


def build_shard_synopses(method: str, pieces, budgets, *, site: str, shard_ids, **kwargs):
    """One synopsis per piece: ``(estimators, seconds)``, in input order.

    Fires the ``site`` fault point (``shard_build``, ``shard_rebuild``
    or ``shard_compact``) and then the ``builder`` site once per piece,
    in order.  Builders whose registry entry :attr:`stacks
    <repro.core.builders.BuilderSpec.stacks>` build every piece of one
    width in a single call to that entry's ``build``, and each piece is
    charged an equal share of its group's time; the others build piece
    by piece.  Either way every synopsis is bit-identical to
    :func:`~repro.core.builders.build_by_name` on its piece.
    """
    spec = BUILDER_REGISTRY.get(method)
    estimators: list = [None] * len(pieces)
    seconds = [0.0] * len(pieces)
    if spec is None or not spec.stacks:
        for index, (shard, piece) in enumerate(zip(shard_ids, pieces)):
            fault_point(site, method=method, shard=shard)
            begin = time.perf_counter()
            estimators[index] = build_by_name(method, piece, int(budgets[index]), **kwargs)
            seconds[index] = time.perf_counter() - begin
        return estimators, seconds
    units = []
    by_width: dict[int, list[int]] = {}
    for index, (shard, piece) in enumerate(zip(shard_ids, pieces)):
        fault_point(site, method=method, shard=shard)
        units.append(build_units(method, piece, int(budgets[index])))
        by_width.setdefault(piece.size, []).append(index)
    for members in by_width.values():
        begin = time.perf_counter()
        built = spec.build(
            np.stack([pieces[index] for index in members]),
            [units[index] for index in members],
            **kwargs,
        )
        share = (time.perf_counter() - begin) / len(members)
        for index, estimator in zip(members, built):
            estimators[index] = estimator
            seconds[index] = share
    return estimators, seconds


class ShardedSynopsis(RangeSumEstimator):
    """A range-sum estimator composed of per-shard synopses.

    Parameters
    ----------
    starts:
        Shard start offsets (length ``S + 1``, see
        :func:`shard_boundaries`).
    estimators:
        One :class:`RangeSumEstimator` per shard, each over its shard's
        slice of the frequency vector.
    totals:
        Exact per-shard totals (``data[starts[i]:starts[i+1]].sum()``),
        frozen at build time — these answer fully-covered shards.
    budgets:
        The word budget each shard was allotted (recorded so a dirty
        shard can be rebuilt with its original allocation).
    method:
        Registry name of the per-shard builder.
    shard_predictions:
        Optional per-shard :class:`~repro.core.builders.ErrorPrediction`
        list (``None`` entries allowed), frozen at build time so an
        incremental refresh can reuse the untouched shards' models.
    """

    def __init__(
        self,
        starts,
        estimators,
        totals,
        budgets,
        method: str,
        shard_predictions=None,
        *,
        interior: str = "tree",
        tree: DyadicShardTree | None = None,
        lineage=None,
    ) -> None:
        self.starts = np.asarray(starts, dtype=np.int64)
        if self.starts.ndim != 1 or self.starts.size < 2:
            raise InvalidParameterError("starts must be a 1-D array of length >= 2")
        if int(self.starts[0]) != 0 or np.any(np.diff(self.starts) < 1):
            raise InvalidParameterError(
                "starts must begin at 0 and be strictly increasing"
            )
        self.estimators = list(estimators)
        if len(self.estimators) != self.num_shards:
            raise InvalidParameterError(
                f"{self.num_shards} shards need {self.num_shards} estimators, "
                f"got {len(self.estimators)}"
            )
        self.totals = np.asarray(totals, dtype=np.float64)
        if self.totals.shape != (self.num_shards,):
            raise InvalidParameterError("totals must have one entry per shard")
        self.budgets = np.asarray(budgets, dtype=np.int64)
        if self.budgets.shape != (self.num_shards,):
            raise InvalidParameterError("budgets must have one entry per shard")
        self.method = str(method)
        if shard_predictions is not None and len(shard_predictions) != self.num_shards:
            raise InvalidParameterError(
                "shard_predictions must have one entry per shard"
            )
        self.shard_predictions = (
            list(shard_predictions) if shard_predictions is not None else None
        )
        if interior not in INTERIOR_MODES:
            raise InvalidParameterError(
                f"interior must be one of {INTERIOR_MODES}, got {interior!r}"
            )
        self.interior = interior
        if tree is None:
            tree = DyadicShardTree(self.totals)
        elif tree.size != self.num_shards:
            raise InvalidParameterError(
                f"tree indexes {tree.size} shards, synopsis has {self.num_shards}"
            )
        #: Dyadic index over the frozen totals; the interior-answering
        #: engine in ``"tree"`` mode and the maintenance fast path of
        #: :meth:`with_rebuilt_shards` both live here.  Derived state —
        #: reconstructible from ``totals`` — so it is excluded from the
        #: paper's storage accounting, like the prefix array before it.
        self.tree = tree
        #: Compaction history: one record per :meth:`with_compacted_runs`
        #: generation (persisted by catalog format v4).
        self.lineage: list[dict] = list(lineage) if lineage is not None else []
        self.n = int(self.starts[-1])
        self._totals_prefix = np.concatenate(([0.0], np.cumsum(self.totals)))

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return int(self.starts.size - 1)

    def shard_of(self, indices) -> np.ndarray:
        """Shard id containing each 0-indexed domain position."""
        return np.searchsorted(self.starts, np.asarray(indices), side="right") - 1

    def shard_slice(self, shard: int) -> slice:
        """The half-open domain slice covered by one shard."""
        return slice(int(self.starts[shard]), int(self.starts[shard + 1]))

    @property
    def tree_depth(self) -> int:
        """Depth of the dyadic interior index (``ceil(log2(S))``)."""
        return self.tree.depth

    @property
    def compaction_generation(self) -> int:
        """How many compaction passes produced this geometry (0 = none)."""
        return len(self.lineage)

    def interior_sum_many(self, firsts, lasts) -> np.ndarray:
        """Exact sums over fully-covered shard runs ``[first..last]``.

        ``"tree"`` mode walks the dyadic index (O(log S) per query,
        vectorised across the batch); ``"flat"`` mode keeps the legacy
        cumulative-prefix difference.  On integer-valued totals the two
        are bit-identical (every partial sum is an exact float64
        integer); the differential suite pins that equivalence for
        every builder in the registry.
        """
        firsts = np.asarray(firsts, dtype=np.int64)
        lasts = np.asarray(lasts, dtype=np.int64)
        if self.interior == "tree":
            return self.tree.range_sum_many(firsts, lasts)
        return self._totals_prefix[lasts + 1] - self._totals_prefix[firsts]

    def _coverage(self, lows: np.ndarray, highs: np.ndarray):
        """Decompose ranges into interior shards and boundary partials.

        Returns ``(left, right, left_full, right_full)`` where ``left``/
        ``right`` are the shard ids containing each range's endpoints and
        the ``*_full`` masks say whether that endpoint shard is fully
        covered (and therefore answered exactly from its frozen total).
        """
        left = np.searchsorted(self.starts, lows, side="right") - 1
        right = np.searchsorted(self.starts, highs, side="right") - 1
        left_full = (lows <= self.starts[left]) & (highs >= self.starts[left + 1] - 1)
        right_full = (lows <= self.starts[right]) & (highs >= self.starts[right + 1] - 1)
        return left, right, left_full, right_full

    # ------------------------------------------------------------------
    # Estimation
    # ------------------------------------------------------------------
    def estimate_many(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Vectorised merge of exact interior totals and boundary estimates."""
        lows = np.asarray(lows, dtype=np.int64)
        highs = np.asarray(highs, dtype=np.int64)
        left, right, left_full, right_full = self._coverage(lows, highs)
        first_full = np.where(left_full, left, left + 1)
        last_full = np.where(right_full, right, right - 1)
        has_interior = first_full <= last_full
        estimates = np.zeros(lows.shape, dtype=np.float64)
        if np.any(has_interior):
            estimates[has_interior] = self.interior_sum_many(
                first_full[has_interior], last_full[has_interior]
            )

        # Boundary partials: the left endpoint's shard when not fully
        # covered (its local range also caps at the query's high when the
        # whole query sits inside one shard), and the right endpoint's
        # shard when distinct and not fully covered.
        left_mask = ~left_full
        right_mask = ~right_full & (right != left)
        partial_shards = np.concatenate((left[left_mask], right[right_mask]))
        if partial_shards.size:
            shard_starts = self.starts[:-1]
            shard_ends = self.starts[1:] - 1
            partial_lows = np.concatenate(
                (
                    np.maximum(lows[left_mask], shard_starts[left[left_mask]])
                    - shard_starts[left[left_mask]],
                    np.zeros(int(right_mask.sum()), dtype=np.int64),
                )
            )
            partial_highs = np.concatenate(
                (
                    np.minimum(highs[left_mask], shard_ends[left[left_mask]])
                    - shard_starts[left[left_mask]],
                    highs[right_mask] - shard_starts[right[right_mask]],
                )
            )
            out_positions = np.concatenate(
                (np.nonzero(left_mask)[0], np.nonzero(right_mask)[0])
            )
            for shard in np.unique(partial_shards):
                mask = partial_shards == shard
                values = np.asarray(
                    self.estimators[shard].estimate_many(
                        partial_lows[mask], partial_highs[mask]
                    ),
                    dtype=np.float64,
                )
                np.add.at(estimates, out_positions[mask], values)
        return estimates

    def partial_shards(self, low: int, high: int) -> list[int]:
        """Shard ids answered by *estimation* for one clipped range.

        The range's interior shards are answered exactly from frozen
        totals, so the only estimated mass sits in the (at most two)
        partially-covered endpoint shards returned here.  Shard-aligned
        ranges return ``[]`` — their answers carry no synopsis error.
        """
        lows = np.asarray([low], dtype=np.int64)
        highs = np.asarray([high], dtype=np.int64)
        left, right, left_full, right_full = self._coverage(lows, highs)
        shards: list[int] = []
        if not bool(left_full[0]):
            shards.append(int(left[0]))
        if not bool(right_full[0]) and int(right[0]) != int(left[0]):
            shards.append(int(right[0]))
        return shards

    def boundary_sse(self, low: int, high: int) -> float | None:
        """Summed frozen SSE-per-query of one range's partial shards.

        The progressive serving tier derives its initial confidence
        interval from this: a range's error is the sum of its boundary
        partials' errors, and each partial shard's frozen
        :class:`~repro.core.builders.ErrorPrediction` models that
        shard's local range error.  Returns ``None`` when any involved
        shard lacks a frozen model (the caller falls back to the
        entry-level prediction); 0.0 for shard-aligned ranges.
        """
        if self.shard_predictions is None:
            return None
        total = 0.0
        for shard in self.partial_shards(low, high):
            prediction = self.shard_predictions[shard]
            if prediction is None:
                return None
            total += float(prediction.sse_per_query)
        return total

    def boundary_stats(self, lows, highs) -> tuple[int, int]:
        """``(queries touching a partial shard, partial estimates issued)``.

        The engine's boundary-shard hit-rate metrics are derived from
        these counts; shard-aligned queries contribute zero to both.
        """
        lows = np.asarray(lows, dtype=np.int64)
        highs = np.asarray(highs, dtype=np.int64)
        left, right, left_full, right_full = self._coverage(lows, highs)
        left_partial = ~left_full
        right_partial = ~right_full & (right != left)
        partials = int(left_partial.sum()) + int(right_partial.sum())
        boundary_queries = int((left_partial | right_partial).sum())
        return boundary_queries, partials

    # ------------------------------------------------------------------
    # Accounting / protocol
    # ------------------------------------------------------------------
    def storage_words(self) -> int:
        """Per-shard synopses plus the shard directory.

        The directory follows the paper's accounting: one word per shard
        boundary (``S + 1``) and one per frozen exact total (``S``).
        """
        return (
            sum(estimator.storage_words() for estimator in self.estimators)
            + self.starts.size
            + self.totals.size
        )

    @property
    def name(self) -> str:
        inner = self.estimators[0].name if self.estimators else self.method
        return f"sharded[{self.num_shards}]x{inner}"

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def with_rebuilt_shards(
        self,
        dirty,
        data,
        *,
        predict: bool | None = None,
        on_shard_built=None,
        budgets=None,
        **builder_kwargs,
    ) -> "ShardedSynopsis":
        """A new synopsis with only ``dirty`` shards rebuilt from ``data``.

        ``data`` is the *whole* refreshed frequency vector (same domain
        as this synopsis).  Untouched shards keep their estimators and
        frozen predictions by reference; dirty shards rebuild with their
        originally-allotted word budgets, unless ``budgets`` (a full
        per-shard vector) overrides them — entries for shards *not* in
        ``dirty`` must equal the current budgets, since those shards'
        estimators are kept as-is.  Stacking builders rebuild the dirty
        shards of one width in one pass (see
        :func:`build_shard_synopses`).  ``predict`` defaults to whether
        this synopsis carries predictions at all.
        """
        data = np.asarray(data, dtype=np.float64)
        if data.size != self.n:
            raise InvalidParameterError(
                f"refresh data has length {data.size}, expected {self.n}"
            )
        dirty = sorted({int(shard) for shard in dirty})
        if dirty and (dirty[0] < 0 or dirty[-1] >= self.num_shards):
            raise InvalidParameterError(
                f"dirty shard ids must be in [0, {self.num_shards}), got {dirty}"
            )
        if budgets is None:
            budgets = self.budgets
        else:
            budgets = np.asarray(budgets, dtype=np.int64)
            if budgets.shape != self.budgets.shape:
                raise InvalidParameterError(
                    f"budget override must have one entry per shard "
                    f"({self.num_shards}), got shape {budgets.shape}"
                )
            untouched = np.ones(self.num_shards, dtype=bool)
            untouched[dirty] = False
            if np.any(budgets[untouched] != self.budgets[untouched]):
                changed = np.nonzero(
                    untouched & (budgets != self.budgets)
                )[0].tolist()
                raise InvalidParameterError(
                    f"budget override changes shards {changed} that are not "
                    "being rebuilt; their estimators would no longer match "
                    "their budgets"
                )
        if predict is None:
            predict = self.shard_predictions is not None
        estimators = list(self.estimators)
        predictions = (
            list(self.shard_predictions)
            if self.shard_predictions is not None
            else [None] * self.num_shards
        )
        totals = self.totals.copy()
        pieces = [data[self.shard_slice(shard)] for shard in dirty]
        built, seconds = build_shard_synopses(
            self.method,
            pieces,
            budgets[dirty],
            site="shard_rebuild",
            shard_ids=dirty,
            **builder_kwargs,
        )
        for shard, piece, estimator in zip(dirty, pieces, built):
            estimators[shard] = estimator
            totals[shard] = float(piece.sum())
            if predict:
                predictions[shard] = predict_sse_per_query(estimator, piece)
        if on_shard_built is not None:
            for shard, elapsed in zip(dirty, seconds):
                on_shard_built(shard, elapsed)
        # O(log S) per rebuilt shard: copy the dyadic index and rewrite
        # only the changed leaves' ancestor paths, instead of
        # recomputing an O(S) prefix from scratch.
        tree, _ = self.tree.updated(dirty, totals[dirty])
        return ShardedSynopsis(
            self.starts,
            estimators,
            totals,
            budgets,
            self.method,
            shard_predictions=predictions if predict else None,
            interior=self.interior,
            tree=tree,
            lineage=self.lineage,
        )

    def with_compacted_runs(
        self,
        runs,
        data,
        *,
        predict: bool | None = None,
        on_shard_built=None,
        **builder_kwargs,
    ) -> "ShardedSynopsis":
        """A new synopsis with each run of adjacent shards merged into one.

        ``runs`` is a sorted list of non-overlapping inclusive shard-id
        pairs ``(first, last)`` (each spanning at least two shards);
        ``data`` is the whole frozen frequency vector the synopsis
        summarises.  Every run collapses into a single coarser shard
        whose synopsis is rebuilt over the merged slice with the *sum*
        of the run's word budgets
        (:func:`repro.core.builders.merge_shard_budgets` — the
        mass-proportional split run in reverse), so total storage
        allocation is conserved.  Untouched shards keep their
        estimators, frozen totals, and predictions by reference —
        copy-on-write exactly like :meth:`with_rebuilt_shards` — and
        the compaction is appended to :attr:`lineage`.

        The t-digest "continuous aggregate" move: cold history collapses
        into coarser mergeable summaries while hot shards stay fine,
        without ever blocking ingest (callers swap the returned synopsis
        in atomically; see
        :meth:`repro.engine.engine.ApproximateQueryEngine.compact_shards`).
        """
        data = np.asarray(data, dtype=np.float64)
        if data.size != self.n:
            raise InvalidParameterError(
                f"compaction data has length {data.size}, expected {self.n}"
            )
        runs = [(int(first), int(last)) for first, last in runs]
        if not runs:
            raise InvalidParameterError("need at least one run to compact")
        # Validates bounds, ordering, non-overlap, and run length >= 2,
        # and pools the merged budgets.
        budgets = merge_shard_budgets(self.budgets, runs)
        if predict is None:
            predict = self.shard_predictions is not None
        old_predictions = (
            self.shard_predictions
            if self.shard_predictions is not None
            else [None] * self.num_shards
        )
        # Each run keeps its first shard's slot; the rest of the run's
        # boundaries disappear.  Untouched shards are kept by reference.
        keep = np.ones(self.num_shards, dtype=bool)
        for first, last in runs:
            keep[first + 1 : last + 1] = False
        kept = np.nonzero(keep)[0]
        starts = np.append(self.starts[:-1][keep], self.n)
        estimators = [self.estimators[shard] for shard in kept]
        totals = self.totals[kept]
        predictions = [old_predictions[shard] for shard in kept]
        slots = np.searchsorted(kept, [first for first, _ in runs])
        pieces = [data[starts[slot] : starts[slot + 1]] for slot in slots]
        built, seconds = build_shard_synopses(
            self.method,
            pieces,
            budgets[slots],
            site="shard_compact",
            shard_ids=[first for first, _ in runs],
            **builder_kwargs,
        )
        for slot, piece, estimator in zip(slots, pieces, built):
            estimators[slot] = estimator
            totals[slot] = float(piece.sum())
            predictions[slot] = predict_sse_per_query(estimator, piece) if predict else None
        if on_shard_built is not None:
            for (first, _), elapsed in zip(runs, seconds):
                on_shard_built(first, elapsed)
        lineage = self.lineage + [
            {
                "generation": self.compaction_generation + 1,
                "runs": [[first, last] for first, last in runs],
                "shards_before": self.num_shards,
                "shards_after": len(estimators),
            }
        ]
        return ShardedSynopsis(
            starts,
            estimators,
            totals,
            budgets,
            self.method,
            shard_predictions=predictions if predict else None,
            interior=self.interior,
            lineage=lineage,
        )

    def touched_shards(self, values_axis: np.ndarray, values) -> set[int] | None:
        """Shard ids a batch of appended raw values lands in.

        ``values_axis`` maps frequency-vector indices to raw attribute
        values (see :class:`~repro.engine.column.ColumnStatistics`).
        Returns ``None`` when any value falls outside the axis — the
        domain itself would change, so every shard must be considered
        dirty.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return set()
        axis = np.asarray(values_axis, dtype=np.float64)
        positions = np.searchsorted(axis, values, side="left")
        if np.any(positions >= axis.size):
            return None
        if not np.allclose(axis[positions], values):
            return None
        return {int(shard) for shard in np.unique(self.shard_of(positions))}


def build_sharded(
    method: str,
    data,
    budget_words: int,
    shards: int,
    *,
    predict: bool = False,
    on_shard_built=None,
    interior: str = "tree",
    **builder_kwargs,
) -> ShardedSynopsis:
    """Build a :class:`ShardedSynopsis` over a frequency vector.

    The domain is cut into ``shards`` contiguous, equal-width index
    partitions (clamped to the domain size) and ``budget_words`` is
    split across them proportionally to per-shard absolute mass (see
    :func:`repro.core.builders.split_budget_by_mass`).  Stacking
    builders (SAP0, SAP1, A0) solve every shard of one width in one
    stacked DP pass; the others build shard by shard (see
    :func:`build_shard_synopses`).  ``predict`` freezes a per-shard
    :class:`~repro.core.builders.ErrorPrediction` for the engine's
    online auditor; ``on_shard_built(shard, seconds)`` observes each
    shard's build wall-time (the engine points it at a metrics
    histogram).
    """
    if method not in BUILDER_REGISTRY:
        raise InvalidParameterError(
            f"unknown builder {method!r}; available: {sorted(BUILDER_REGISTRY)}"
        )
    data = np.asarray(data, dtype=np.float64)
    starts = shard_boundaries(data.size, shards)
    budgets = split_budget_by_mass(method, data, starts, budget_words)
    shard_ids = list(range(starts.size - 1))
    pieces = [data[starts[shard] : starts[shard + 1]] for shard in shard_ids]
    estimators, seconds = build_shard_synopses(
        method, pieces, budgets, site="shard_build", shard_ids=shard_ids, **builder_kwargs
    )
    totals = np.asarray([float(piece.sum()) for piece in pieces], dtype=np.float64)
    predictions = (
        [predict_sse_per_query(est, piece) for est, piece in zip(estimators, pieces)]
        if predict
        else None
    )
    if on_shard_built is not None:
        for shard, elapsed in zip(shard_ids, seconds):
            on_shard_built(shard, elapsed)
    return ShardedSynopsis(
        starts,
        estimators,
        totals,
        budgets,
        method,
        shard_predictions=predictions,
        interior=interior,
    )
