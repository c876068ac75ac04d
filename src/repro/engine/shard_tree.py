"""Dyadic tree index over frozen per-shard totals.

A :class:`~repro.engine.sharding.ShardedSynopsis` answers the interior
of ``s[a, b]`` from the exact totals of its fully-covered shards.  A
flat sum over those totals is O(S) per query and, worse, any prefix
array cached over them is invalidated wholesale (an O(S) recompute)
every time one shard's total changes — which under streaming ingest is
*every* ``refresh_stale``.  This module replaces both with the classic
dyadic decomposition (the same one :mod:`repro.sketches.dyadic` uses
for Count-Min range queries): a complete binary tree whose level-0
leaves are the shard totals and whose level-``k`` nodes each hold the
sum of a ``2^k``-aligned block of shards.

* **answering** — any interior run ``[first, last]`` of shards is
  covered by at most ``2 log2(S)`` tree nodes, so a range resolves in
  O(log S) node reads (vectorised across a batch via dyadic prefix
  sums);
* **maintenance** — changing one shard's total touches exactly its
  ``depth + 1`` ancestors, so an incremental dirty-shard refresh keeps
  the index consistent in O(log S) per rebuilt shard instead of
  recomputing an O(S) prefix;
* **mergeability** — two trees over adjacent shard runs concatenate,
  and a compaction that merges a run of shards into one coarser shard
  is just a rebuild of the (smaller) tree.

With integer-valued totals (COUNT vectors always; SUM vectors over
integer attributes) every node value is an exact float64 integer, so
tree answers are *bit-identical* to flat summation in any order — the
differential suites assert exactly that.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidParameterError
from repro.wavelets.haar import next_power_of_two


class DyadicShardTree:
    """Complete dyadic sum-tree over a vector of per-shard totals.

    The tree is stored as one float64 array per level: ``levels[0]`` is
    the totals padded with zeros to the next power of two, and
    ``levels[k][i] == levels[k-1][2i] + levels[k-1][2i + 1]`` — the
    node-equals-sum-of-children invariant checked by
    :meth:`check_invariant` and the property suites.
    """

    def __init__(self, totals) -> None:
        totals = np.asarray(totals, dtype=np.float64)
        if totals.ndim != 1 or totals.size < 1:
            raise InvalidParameterError(
                f"totals must be a non-empty 1-D vector, got shape {totals.shape}"
            )
        self.size = int(totals.size)
        self.padded = next_power_of_two(self.size)
        self.depth = int(self.padded.bit_length() - 1)
        level = np.zeros(self.padded, dtype=np.float64)
        level[: self.size] = totals
        self.levels: list[np.ndarray] = [level]
        for _ in range(self.depth):
            level = level[0::2] + level[1::2]
            self.levels.append(level)

    @classmethod
    def from_levels(cls, levels, size: int) -> "DyadicShardTree":
        """Rehydrate a tree from persisted level arrays (verifying shape).

        The caller is expected to follow up with :meth:`check_invariant`
        when the arrays come from an untrusted source (a persisted
        catalog); shape damage is rejected here directly.
        """
        tree = cls.__new__(cls)
        levels = [np.asarray(level, dtype=np.float64).copy() for level in levels]
        if not levels or levels[0].size < 1:
            raise InvalidParameterError("tree needs at least one non-empty level")
        tree.size = int(size)
        tree.padded = int(levels[0].size)
        tree.depth = len(levels) - 1
        if tree.padded != next_power_of_two(max(tree.size, 1)) or tree.size < 1:
            raise InvalidParameterError(
                f"level 0 has {tree.padded} slots; expected the next power of "
                f"two above size {size}"
            )
        for index, level in enumerate(levels):
            if level.size != tree.padded >> index:
                raise InvalidParameterError(
                    f"level {index} has {level.size} nodes, expected "
                    f"{tree.padded >> index}"
                )
        if levels[-1].size != 1:
            raise InvalidParameterError("top level must hold exactly the root")
        tree.levels = levels
        return tree

    # ------------------------------------------------------------------
    # Geometry / accounting
    # ------------------------------------------------------------------
    @property
    def nodes_per_update(self) -> int:
        """Tree nodes rewritten by one :meth:`update` (leaf + ancestors)."""
        return self.depth + 1

    @property
    def node_count(self) -> int:
        return sum(level.size for level in self.levels)

    @property
    def root(self) -> float:
        """The whole-domain total (sum of every shard)."""
        return float(self.levels[-1][0])

    def leaf_totals(self) -> np.ndarray:
        """The live per-shard totals (a copy, unpadded)."""
        return self.levels[0][: self.size].copy()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def update(self, shard: int, new_total: float) -> int:
        """Set one shard's total, rewriting its ``depth + 1`` ancestors.

        Returns the number of nodes rewritten (always
        :attr:`nodes_per_update`) so callers can account node refreshes.
        """
        if not 0 <= shard < self.size:
            raise InvalidParameterError(
                f"shard {shard} out of range [0, {self.size})"
            )
        self.levels[0][shard] = float(new_total)
        for level in range(1, self.depth + 1):
            parent = shard >> level
            child = parent * 2
            self.levels[level][parent] = (
                self.levels[level - 1][child] + self.levels[level - 1][child + 1]
            )
        return self.nodes_per_update

    def updated(self, shards, new_totals) -> tuple["DyadicShardTree", int]:
        """A copy of this tree with the given shard totals replaced.

        Copy-on-write companion of
        :meth:`~repro.engine.sharding.ShardedSynopsis.with_rebuilt_shards`:
        the level arrays are copied once (a memcpy, not a prefix
        recompute) and each changed shard costs O(log S) node rewrites.
        Returns ``(tree, nodes_rewritten)``.
        """
        shards = list(shards)
        new_totals = np.asarray(new_totals, dtype=np.float64)
        if len(shards) != new_totals.size:
            raise InvalidParameterError(
                "shards and new_totals must be parallel sequences"
            )
        clone = DyadicShardTree.__new__(DyadicShardTree)
        clone.size = self.size
        clone.padded = self.padded
        clone.depth = self.depth
        clone.levels = [level.copy() for level in self.levels]
        refreshed = 0
        for shard, total in zip(shards, new_totals.tolist()):
            refreshed += clone.update(int(shard), total)
        return clone, refreshed

    # ------------------------------------------------------------------
    # Answering
    # ------------------------------------------------------------------
    def prefix_many(self, counts) -> np.ndarray:
        """Vectorised dyadic prefix sums: ``out[i] = sum(totals[:counts[i]])``.

        Each prefix ``[0, k)`` decomposes into one aligned block per set
        bit of ``k`` (the block for bit ``l`` starts at ``k`` with its
        low ``l + 1`` bits cleared), so the whole batch resolves in
        ``depth + 1`` vectorised gathers — O(log S) per query with no
        python-level loop over queries.
        """
        counts = np.asarray(counts, dtype=np.int64)
        if counts.size and (counts.min() < 0 or counts.max() > self.size):
            raise InvalidParameterError(
                f"prefix counts must lie in [0, {self.size}]"
            )
        result = np.zeros(counts.shape, dtype=np.float64)
        # Unmasked gather-multiply beats boolean masking here: the bit
        # selects via a 0/1 factor, so each level is one shift, one
        # gather, one fused multiply-add over the whole batch.  The
        # gathered node is exact even when the bit is 0 (the index is
        # still in range), and 0.0 * node adds exactly 0.0 in IEEE-754
        # for every finite node value, so answers are bit-identical to
        # the masked form.
        for level in range(self.depth + 1):
            bits = (counts >> level) & 1
            nodes = (counts >> (level + 1)) * 2
            # A node index can only run off the level's end when its bit
            # is 0 (counts == padded size), where the factor kills the
            # term anyway — clamp so the gather stays in bounds.
            np.minimum(nodes, self.levels[level].size - 1, out=nodes)
            result += self.levels[level][nodes] * bits
        return result

    def range_sum_many(self, firsts, lasts) -> np.ndarray:
        """Vectorised interior sums ``sum(totals[first..last])`` (inclusive)."""
        firsts = np.asarray(firsts, dtype=np.int64)
        lasts = np.asarray(lasts, dtype=np.int64)
        if firsts.size and np.any(firsts > lasts):
            raise InvalidParameterError("every first must be <= its last")
        return self.prefix_many(lasts + 1) - self.prefix_many(firsts)

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def check_invariant(self) -> bool:
        """Whether every node equals the sum of its two children.

        Also checks that the padding slots beyond :attr:`size` are
        exactly zero (a corrupted pad would silently shift every
        aligned answer).  Used by the property suites and by catalog
        loading to verify persisted trees.
        """
        if np.any(self.levels[0][self.size :] != 0.0):
            return False
        for level in range(1, self.depth + 1):
            below = self.levels[level - 1]
            if not np.array_equal(self.levels[level], below[0::2] + below[1::2]):
                return False
        return True
