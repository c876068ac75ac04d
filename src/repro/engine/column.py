"""Attribute-value distributions of table columns.

A :class:`ColumnStatistics` turns a raw column into the paper's model: a
frequency vector indexed by attribute value.  COUNT range predicates
translate to range sums over the count vector; SUM predicates to range
sums over the value-weighted vector (so the same synopsis machinery
answers both).

Two physical layouts, chosen automatically:

* **dense** — one slot per integer in ``[lo, hi]`` (the paper's model);
  used when the span is at most ``MAX_DENSE_DOMAIN``.
* **rank** — one slot per *distinct* value, in sorted order; used for
  wide or non-integer domains (prices in cents, identifiers...).  Range
  predicates map to rank intervals by binary search, so every synopsis
  and estimator works unchanged — the histogram then buckets ranks
  rather than raw values, which is exactly how engines handle wide
  domains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidDataError

#: Widest integer span materialised densely.
MAX_DENSE_DOMAIN = 1 << 20


@dataclass(frozen=True)
class ColumnStatistics:
    """Attribute-value distribution of one column.

    Attributes
    ----------
    lo, hi:
        Smallest and largest attribute value present.
    values_axis:
        The attribute value at each frequency-vector index (for the
        dense layout, ``lo + arange``; for the rank layout, the sorted
        distinct values).
    count_frequencies:
        Rows per index.
    sum_frequencies:
        Attribute mass per index (``values_axis * count_frequencies``).
    row_count:
        Total number of rows.
    layout:
        ``"dense"`` or ``"rank"``.
    """

    lo: float
    hi: float
    values_axis: np.ndarray
    count_frequencies: np.ndarray
    sum_frequencies: np.ndarray
    row_count: int
    layout: str

    @classmethod
    def from_values(cls, values, max_dense_domain: int = MAX_DENSE_DOMAIN) -> "ColumnStatistics":
        """Build the distribution from a raw column of values.

        Integer-valued columns with span up to ``max_dense_domain`` get
        the dense layout; everything else (wide spans, true floats)
        gets the rank layout.
        """
        values = np.asarray(values)
        if values.ndim != 1 or values.size == 0:
            raise InvalidDataError("column must be a non-empty 1-D array")
        values = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(values)):
            raise InvalidDataError("column contains NaN or infinite values")

        integral = np.allclose(values, np.round(values))
        lo = float(values.min())
        hi = float(values.max())
        if integral and hi - lo + 1 <= max_dense_domain:
            ints = np.round(values).astype(np.int64)
            lo_i, hi_i = int(lo), int(hi)
            domain = hi_i - lo_i + 1
            counts = np.bincount(ints - lo_i, minlength=domain).astype(np.float64)
            axis = np.arange(domain, dtype=np.float64) + lo_i
            layout = "dense"
        else:
            axis, count_ints = np.unique(values, return_counts=True)
            counts = count_ints.astype(np.float64)
            layout = "rank"
        return cls(
            lo=lo,
            hi=hi,
            values_axis=axis,
            count_frequencies=counts,
            sum_frequencies=counts * axis,
            row_count=int(values.size),
            layout=layout,
        )

    def with_appended(self, values) -> "ColumnStatistics | None":
        """These statistics plus appended raw ``values``, without a rescan.

        COUNT and SUM frequency vectors are additive, so when every
        appended value lands on an existing slot the result is exactly
        what :meth:`from_values` returns on the whole column: the counts
        gain the tail's counts and ``sum_frequencies`` is recomputed as
        ``counts * values_axis``.  Returns ``None`` — the caller must
        rescan — when that cannot hold: a non-finite tail (the rescan
        raises the usual error), a non-integral tail on the dense layout
        (the column turns rank), a value outside ``[lo, hi]``, a new
        distinct value on the rank layout, or a negative zero (whose
        sign a rescan may or may not keep).
        """
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            return None
        if values.size == 0:
            return self
        if not np.all(np.isfinite(values)):
            return None
        if values.min() < self.lo or values.max() > self.hi:
            return None
        if np.any(np.signbit(values) & (values == 0.0)):
            return None
        if self.layout == "dense":
            if not np.allclose(values, np.round(values)):
                return None
            positions = np.round(values).astype(np.int64) - int(self.values_axis[0])
            if positions.min() < 0 or positions.max() >= self.domain_size:
                return None
        else:
            positions = np.searchsorted(self.values_axis, values, side="left")
            if positions.max() >= self.domain_size or np.any(
                self.values_axis[positions] != values
            ):
                return None
        counts = self.count_frequencies + np.bincount(
            positions, minlength=self.domain_size
        )
        return ColumnStatistics(
            lo=self.lo,
            hi=self.hi,
            values_axis=self.values_axis,
            count_frequencies=counts,
            sum_frequencies=counts * self.values_axis,
            row_count=self.row_count + int(values.size),
            layout=self.layout,
        )

    @property
    def domain_size(self) -> int:
        """Number of indexable slots in the frequency vectors."""
        return int(self.count_frequencies.size)

    def value_at(self, index: int) -> float:
        """The attribute value a frequency-vector index refers to."""
        return float(self.values_axis[index])

    def clip_axis(self, low, high) -> tuple[int, int] | None:
        """Alias of :meth:`clip_range`, used by joint statistics."""
        return self.clip_range(low, high)

    def clip_range(self, low, high) -> tuple[int, int] | None:
        """Intersect a raw-value range with the domain; None if empty.

        Open endpoints (``None``) mean unbounded on that side.  Returns
        0-indexed positions into the frequency vectors covering exactly
        the values in ``[low, high]``.
        """
        low_index = (
            0
            if low is None
            else int(np.searchsorted(self.values_axis, low, side="left"))
        )
        high_index = (
            self.domain_size - 1
            if high is None
            else int(np.searchsorted(self.values_axis, high, side="right")) - 1
        )
        if low_index > high_index or low_index >= self.domain_size or high_index < 0:
            return None
        return low_index, high_index

    def _prefix(self, kind: str) -> np.ndarray:
        """Cached exclusive prefix sums of one frequency vector.

        The cache lives on the instance (lazily attached; the dataclass
        is frozen but not slotted) so repeated snapshot lookups — the
        audit path answers every sampled query this way — cost two array
        reads instead of an O(n) cumsum.
        """
        cache = self.__dict__.get("_prefix_cache")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_prefix_cache", cache)
        if kind not in cache:
            frequencies = (
                self.count_frequencies if kind == "count" else self.sum_frequencies
            )
            cache[kind] = np.concatenate(([0.0], np.cumsum(frequencies)))
        return cache[kind]

    def range_totals(self, kind: str, low_index, high_index) -> np.ndarray:
        """Exact range sums of a frequency vector over clipped index ranges.

        ``kind`` is ``"count"`` or ``"sum"``; indices are inclusive and
        must already be clipped (see :meth:`clip_range` /
        :meth:`clip_range_many`).  These are the *build-time snapshot*
        answers: for a non-stale synopsis they equal a live table scan,
        which is what lets the engine audit queries without rescanning.
        """
        if kind not in ("count", "sum"):
            raise InvalidDataError(f"kind must be count or sum, got {kind!r}")
        prefix = self._prefix(kind)
        low_index = np.asarray(low_index, dtype=np.int64)
        high_index = np.asarray(high_index, dtype=np.int64)
        return prefix[high_index + 1] - prefix[low_index]

    def clip_range_many(
        self, lows, highs
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised :meth:`clip_range` over parallel bound arrays.

        ``-inf`` / ``+inf`` stand in for open endpoints.  Returns
        ``(low_idx, high_idx, valid)``; entries with ``valid[i] False``
        select no domain value and their indices are meaningless.
        """
        lows = np.asarray(lows, dtype=np.float64)
        highs = np.asarray(highs, dtype=np.float64)
        low_idx = np.searchsorted(self.values_axis, lows, side="left").astype(np.int64)
        high_idx = (
            np.searchsorted(self.values_axis, highs, side="right").astype(np.int64) - 1
        )
        valid = (low_idx <= high_idx) & (low_idx < self.domain_size) & (high_idx >= 0)
        return low_idx, high_idx, valid


@dataclass(frozen=True)
class JointColumnStatistics:
    """Dense joint distribution of two columns.

    ``count_grid[i, j]`` is the number of rows whose (x, y) values sit
    at indices ``(i, j)`` of the two columns' value axes — the 2-D
    frequency grid the footnote-2 synopses summarise.  Guarded by
    :data:`MAX_JOINT_CELLS` because the grid is materialised densely;
    wide attributes fall back to their rank layout automatically, so
    the cell count is (distinct x) * (distinct y).
    """

    x: ColumnStatistics
    y: ColumnStatistics
    count_grid: np.ndarray
    row_count: int

    @classmethod
    def from_values(cls, x_values, y_values) -> "JointColumnStatistics":
        x_stats = ColumnStatistics.from_values(x_values)
        y_stats = ColumnStatistics.from_values(y_values)
        cells = x_stats.domain_size * y_stats.domain_size
        if cells > MAX_JOINT_CELLS:
            raise InvalidDataError(
                f"joint domain has {cells} cells (> {MAX_JOINT_CELLS}); "
                "coarsen the attributes before building a joint synopsis"
            )
        x_raw = np.asarray(x_values, dtype=np.float64)
        y_raw = np.asarray(y_values, dtype=np.float64)
        if x_raw.shape != y_raw.shape:
            raise InvalidDataError("joint columns must have the same length")
        x_idx = np.searchsorted(x_stats.values_axis, x_raw)
        y_idx = np.searchsorted(y_stats.values_axis, y_raw)
        grid = np.zeros((x_stats.domain_size, y_stats.domain_size))
        np.add.at(grid, (x_idx, y_idx), 1.0)
        return cls(x=x_stats, y=y_stats, count_grid=grid, row_count=int(x_raw.size))

    def clip_rectangle(self, x_low, x_high, y_low, y_high):
        """Intersect a raw-value rectangle with the joint domain.

        Returns 0-indexed ``(x1, y1, x2, y2)`` or None if empty.
        """
        x_clip = self.x.clip_axis(x_low, x_high)
        y_clip = self.y.clip_axis(y_low, y_high)
        if x_clip is None or y_clip is None:
            return None
        return x_clip[0], y_clip[0], x_clip[1], y_clip[1]


#: Largest joint grid materialised by :class:`JointColumnStatistics`.
MAX_JOINT_CELLS = 1 << 20
