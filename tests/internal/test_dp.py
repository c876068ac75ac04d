"""Tests for the generic interval dynamic program."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.internal.dp as dp_module
from repro.internal.dp import interval_dp
from tests.helpers import enumerate_lefts_at_most
from tests.reference.dp import fill_layer_scalar


def brute_best(n, max_buckets, cost):
    best = np.inf
    best_lefts = None
    for lefts in enumerate_lefts_at_most(n, max_buckets):
        rights = [*[left - 1 for left in lefts[1:]], n - 1]
        total = sum(cost(a, b) for a, b in zip(lefts, rights))
        if total < best:
            best, best_lefts = total, lefts
    return best, best_lefts


class TestIntervalDP:
    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(42)
        n = 9
        cost_matrix = rng.random((n, n)) * 10

        def cost_row(a):
            return cost_matrix[a, a:]

        for max_buckets in (1, 2, 3, 4):
            lefts, total = interval_dp(n, max_buckets, cost_row)
            brute_total, _ = brute_best(n, max_buckets, lambda a, b: cost_matrix[a, b])
            assert total == pytest.approx(brute_total)
            # The returned bucketing must realise the claimed total.
            rights = np.concatenate((lefts[1:] - 1, [n - 1]))
            realised = sum(cost_matrix[a, b] for a, b in zip(lefts, rights))
            assert realised == pytest.approx(total)

    def test_uses_fewer_buckets_when_cheaper(self):
        # Splitting is strictly penalised: optimal solution is one bucket.
        n = 6

        def cost_row(a):
            return np.ones(n - a) * 5.0  # every bucket costs 5

        lefts, total = interval_dp(n, 4, cost_row)
        assert lefts.tolist() == [0]
        assert total == 5.0

    def test_monotone_in_bucket_budget(self):
        rng = np.random.default_rng(3)
        n = 10
        cost_matrix = rng.random((n, n))

        def cost_row(a):
            return cost_matrix[a, a:]

        totals = [interval_dp(n, k, cost_row)[1] for k in range(1, 6)]
        assert all(t1 >= t2 - 1e-12 for t1, t2 in zip(totals, totals[1:]))

    def test_single_bucket(self):
        def cost_row(a):
            return np.arange(a, 4, dtype=float) + 1

        lefts, total = interval_dp(4, 1, cost_row)
        assert lefts.tolist() == [0]
        assert total == 4.0  # cost(0, 3) = 4

    def test_n_buckets_equal_n(self):
        # With n singleton buckets of zero cost, total is zero.
        n = 5

        def cost_row(a):
            row = np.ones(n - a)
            row[0] = 0.0  # singleton [a, a] free
            return row

        lefts, total = interval_dp(n, n, cost_row)
        assert total == 0.0
        assert lefts.tolist() == list(range(n))

    def test_bad_row_length_rejected(self):
        with pytest.raises(ValueError, match="length"):
            interval_dp(4, 2, lambda a: np.ones(1))

    def test_bad_combine_rejected(self):
        with pytest.raises(ValueError, match="combine"):
            interval_dp(4, 2, lambda a: np.ones(4 - a), combine="min")

    def test_bad_bucket_budget_rejected(self):
        with pytest.raises(ValueError, match="max_buckets"):
            interval_dp(4, 0, lambda a: np.ones(4 - a))

    def test_per_bucket_overhead_prefers_fewer_buckets(self):
        """Regression: with a fixed overhead added to every bucket the
        last layer is not the cheapest — the backtrack must start from
        the best k <= max_buckets, not unconditionally from the last."""
        rng = np.random.default_rng(11)
        n = 8
        base = rng.random((n, n))

        for overhead in (0.5, 2.0, 10.0):
            def cost_row(a):
                return base[a, a:] + overhead

            for max_buckets in (2, 3, 5):
                lefts, total = interval_dp(n, max_buckets, cost_row)
                brute_total, _ = brute_best(
                    n, max_buckets, lambda a, b: base[a, b] + overhead
                )
                assert total == pytest.approx(brute_total)
                rights = np.concatenate((lefts[1:] - 1, [n - 1]))
                realised = sum(base[a, b] + overhead for a, b in zip(lefts, rights))
                assert realised == pytest.approx(total)

    def test_combine_max_matches_enumeration(self):
        rng = np.random.default_rng(7)
        n = 8
        cost_matrix = rng.random((n, n)) * 10

        def cost_row(a):
            return cost_matrix[a, a:]

        for max_buckets in (1, 2, 3, 4):
            lefts, total = interval_dp(n, max_buckets, cost_row, combine="max")
            brute = min(
                max(
                    cost_matrix[a, b]
                    for a, b in zip(
                        lefts_cand, [*[l - 1 for l in lefts_cand[1:]], n - 1]
                    )
                )
                for lefts_cand in enumerate_lefts_at_most(n, max_buckets)
            )
            assert total == pytest.approx(brute)


class TestVectorisedFillDifferential:
    """The whole-layer numpy fill must reproduce the scalar per-prefix
    recurrence bitwise, including its first-smallest-j tie-break."""

    def _run_both(self, n, max_buckets, cost_row, combine, monkeypatch):
        vec = interval_dp(n, max_buckets, cost_row, combine=combine)
        monkeypatch.setattr(dp_module, "_fill_layer", fill_layer_scalar)
        scalar = interval_dp(n, max_buckets, cost_row, combine=combine)
        return vec, scalar

    @pytest.mark.parametrize("combine", ["sum", "max"])
    def test_random_costs(self, combine, monkeypatch):
        rng = np.random.default_rng(23)
        n = 11
        cost_matrix = rng.random((n, n)) * 5
        vec, scalar = self._run_both(
            n, 4, lambda a: cost_matrix[a, a:], combine, monkeypatch
        )
        np.testing.assert_array_equal(vec[0], scalar[0])
        assert vec[1] == scalar[1]

    @pytest.mark.parametrize("combine", ["sum", "max"])
    def test_ties_resolve_identically(self, combine, monkeypatch):
        # Constant costs tie every candidate split; both fills must pick
        # the same (first) parent and hence the same boundaries.
        n = 9
        vec, scalar = self._run_both(
            n, 3, lambda a: np.ones(n - a), combine, monkeypatch
        )
        np.testing.assert_array_equal(vec[0], scalar[0])
        assert vec[1] == scalar[1]

    @settings(max_examples=40, deadline=None)
    @given(
        costs=st.lists(
            st.integers(min_value=0, max_value=30), min_size=1, max_size=45
        ),
        max_buckets=st.integers(min_value=1, max_value=5),
        combine=st.sampled_from(["sum", "max"]),
    )
    def test_property_differential(self, costs, max_buckets, combine):
        # Triangular-number sizes only; trim to the largest full matrix.
        n = 1
        while (n + 1) * (n + 2) // 2 <= len(costs):
            n += 1
        cost_matrix = np.full((n, n), np.inf)
        it = iter(costs)
        for a in range(n):
            for b in range(a, n):
                cost_matrix[a, b] = float(next(it))

        def cost_row(a):
            return cost_matrix[a, a:]

        vec = interval_dp(n, max_buckets, cost_row, combine=combine)
        original = dp_module._fill_layer
        dp_module._fill_layer = fill_layer_scalar
        try:
            scalar = interval_dp(n, max_buckets, cost_row, combine=combine)
        finally:
            dp_module._fill_layer = original
        np.testing.assert_array_equal(vec[0], scalar[0])
        assert vec[1] == scalar[1]
