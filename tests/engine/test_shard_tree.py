"""Unit and property tests for the dyadic shard tree itself."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.shard_tree import DyadicShardTree
from repro.errors import InvalidParameterError
from tests.reference.shard_tree import range_sum

totals_vectors = st.lists(
    st.integers(min_value=0, max_value=1000), min_size=1, max_size=70
).map(lambda values: np.asarray(values, dtype=np.float64))


class TestConstruction:
    def test_levels_halve_up_to_the_root(self):
        tree = DyadicShardTree(np.arange(6, dtype=np.float64))
        assert tree.size == 6
        assert tree.padded == 8
        assert tree.depth == 3
        assert [level.size for level in tree.levels] == [8, 4, 2, 1]
        assert tree.root == 15.0
        assert tree.node_count == 15
        assert tree.nodes_per_update == 4

    def test_single_shard_tree(self):
        tree = DyadicShardTree([7.0])
        assert tree.depth == 0
        assert tree.root == 7.0
        assert range_sum(tree, 0, 0) == 7.0
        assert tree.prefix_many([0, 1]).tolist() == [0.0, 7.0]

    def test_rejects_empty_and_multidimensional_input(self):
        with pytest.raises(InvalidParameterError):
            DyadicShardTree([])
        with pytest.raises(InvalidParameterError):
            DyadicShardTree(np.zeros((2, 2)))

    def test_from_levels_validates_shapes(self):
        tree = DyadicShardTree(np.arange(5, dtype=np.float64))
        again = DyadicShardTree.from_levels(tree.levels, tree.size)
        assert again.check_invariant()
        assert np.array_equal(again.leaf_totals(), tree.leaf_totals())
        with pytest.raises(InvalidParameterError):
            DyadicShardTree.from_levels(tree.levels[:-1], tree.size)  # no root
        with pytest.raises(InvalidParameterError):
            DyadicShardTree.from_levels(tree.levels, 100)  # size mismatch
        with pytest.raises(InvalidParameterError):
            DyadicShardTree.from_levels([], 1)


class TestAnswering:
    @given(totals=totals_vectors)
    @settings(max_examples=60, deadline=None)
    def test_every_range_matches_the_flat_sum_bitwise(self, totals):
        tree = DyadicShardTree(totals)
        size = totals.size
        firsts, lasts = np.tril_indices(size)
        firsts, lasts = lasts, firsts  # tril gives first >= last; swap
        batched = tree.range_sum_many(firsts, lasts)
        flat = np.asarray(
            [totals[f : l + 1].sum() for f, l in zip(firsts, lasts)]
        )
        assert np.array_equal(batched, flat)

    @given(totals=totals_vectors, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_scalar_block_cover_matches_batch(self, totals, data):
        tree = DyadicShardTree(totals)
        first = data.draw(st.integers(0, totals.size - 1))
        last = data.draw(st.integers(first, totals.size - 1))
        assert range_sum(tree, first, last) == tree.range_sum_many(
            [first], [last]
        )[0]

    @given(totals=totals_vectors)
    @settings(max_examples=60, deadline=None)
    def test_prefixes_match_cumsum_bitwise(self, totals):
        tree = DyadicShardTree(totals)
        counts = np.arange(totals.size + 1)
        expected = np.concatenate(([0.0], np.cumsum(totals)))
        assert np.array_equal(tree.prefix_many(counts), expected)

    def test_bounds_are_validated(self):
        tree = DyadicShardTree(np.ones(5))
        with pytest.raises(InvalidParameterError):
            tree.prefix_many([6])
        with pytest.raises(InvalidParameterError):
            tree.prefix_many([-1])
        with pytest.raises(InvalidParameterError):
            tree.range_sum_many([2], [1])


class TestMaintenance:
    @given(totals=totals_vectors, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_update_propagates_to_every_ancestor(self, totals, data):
        tree = DyadicShardTree(totals)
        shard = data.draw(st.integers(0, totals.size - 1))
        new_total = float(data.draw(st.integers(0, 1000)))
        rewritten = tree.update(shard, new_total)
        assert rewritten == tree.nodes_per_update
        reference = totals.copy()
        reference[shard] = new_total
        assert tree.check_invariant()
        assert np.array_equal(tree.leaf_totals(), reference)
        assert np.array_equal(
            tree.levels[-1], DyadicShardTree(reference).levels[-1]
        )

    def test_update_rejects_out_of_range_shards(self):
        tree = DyadicShardTree(np.ones(4))
        with pytest.raises(InvalidParameterError):
            tree.update(4, 1.0)
        with pytest.raises(InvalidParameterError):
            tree.update(-1, 1.0)

    def test_updated_is_copy_on_write(self):
        totals = np.arange(10, dtype=np.float64)
        tree = DyadicShardTree(totals)
        clone, rewritten = tree.updated([2, 7], [100.0, 200.0])
        assert rewritten == 2 * tree.nodes_per_update
        # The original is untouched...
        assert np.array_equal(tree.leaf_totals(), totals)
        assert tree.check_invariant()
        # ...and the clone reflects exactly the two new totals.
        expected = totals.copy()
        expected[2], expected[7] = 100.0, 200.0
        assert np.array_equal(clone.leaf_totals(), expected)
        assert clone.check_invariant()
        assert clone.root == expected.sum()

    def test_updated_rejects_mismatched_sequences(self):
        tree = DyadicShardTree(np.ones(4))
        with pytest.raises(InvalidParameterError):
            tree.updated([1, 2], [1.0])


class TestInvariantChecker:
    def test_detects_a_broken_interior_node(self):
        tree = DyadicShardTree(np.arange(8, dtype=np.float64))
        assert tree.check_invariant()
        tree.levels[1][0] += 1.0
        assert not tree.check_invariant()

    def test_detects_corrupted_padding(self):
        tree = DyadicShardTree(np.arange(5, dtype=np.float64))
        tree.levels[0][6] = 3.0  # beyond size=5: must stay zero
        assert not tree.check_invariant()
