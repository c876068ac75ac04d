"""Cross-checks of the O(1) bucket statistics against brute force.

These are the load-bearing tests of the whole library: every dynamic
program trusts these closed forms.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.internal.prefix import PrefixAlgebra, WeightedPointCost, round_half_up
from tests.reference.prefix import (
    rounded_bucket_terms,
    rounded_intra_sse,
    rounded_prefix_errors,
    rounded_suffix_errors,
)

# ----------------------------------------------------------------------
# Brute-force references
# ----------------------------------------------------------------------


def brute_suffix_errors(data, a, b, rounded):
    mean = data[a : b + 1].mean()
    errors = []
    for l in range(a, b + 1):
        exact = data[l : b + 1].sum()
        approx = (b - l + 1) * mean
        if rounded:
            approx = math.floor(approx + 0.5)
        errors.append(exact - approx)
    return np.asarray(errors)


def brute_prefix_errors(data, a, b, rounded):
    mean = data[a : b + 1].mean()
    errors = []
    for r in range(a, b + 1):
        exact = data[a : r + 1].sum()
        approx = (r - a + 1) * mean
        if rounded:
            approx = math.floor(approx + 0.5)
        errors.append(exact - approx)
    return np.asarray(errors)


def brute_intra_sse(data, a, b, rounded):
    mean = data[a : b + 1].mean()
    total = 0.0
    for l in range(a, b + 1):
        for r in range(l, b + 1):
            approx = (r - l + 1) * mean
            if rounded:
                approx = math.floor(approx + 0.5)
            total += (data[l : r + 1].sum() - approx) ** 2
    return total


def all_buckets(n, max_len=None):
    for a in range(n):
        for b in range(a, n if max_len is None else min(n, a + max_len)):
            yield a, b


DATASETS = [
    np.asarray([5.0]),
    np.asarray([1, 3, 5, 11, 12, 13], dtype=float),
    np.asarray([0, 0, 0, 0], dtype=float),
    np.asarray([7, 0, 0, 2, 9, 9, 1, 4, 4, 4], dtype=float),
]


@pytest.mark.parametrize("data", DATASETS, ids=["single", "paper", "zeros", "mixed"])
class TestAgainstBruteForce:
    def test_range_sum(self, data):
        algebra = PrefixAlgebra(data)
        for a, b in all_buckets(data.size):
            assert algebra.range_sum(a, b) == pytest.approx(data[a : b + 1].sum())

    def test_suffix_error_moments(self, data):
        algebra = PrefixAlgebra(data)
        for a, b in all_buckets(data.size):
            errors = brute_suffix_errors(data, a, b, rounded=False)
            s1, s2 = algebra.suffix_error_moments(a, b)
            assert s1 == pytest.approx(errors.sum(), abs=1e-8)
            assert s2 == pytest.approx((errors**2).sum(), abs=1e-8)

    def test_prefix_error_moments(self, data):
        algebra = PrefixAlgebra(data)
        for a, b in all_buckets(data.size):
            errors = brute_prefix_errors(data, a, b, rounded=False)
            p1, p2 = algebra.prefix_error_moments(a, b)
            assert p1 == pytest.approx(errors.sum(), abs=1e-8)
            assert p2 == pytest.approx((errors**2).sum(), abs=1e-8)

    def test_intra_sse(self, data):
        algebra = PrefixAlgebra(data)
        for a, b in all_buckets(data.size):
            assert algebra.intra_sse(a, b) == pytest.approx(
                brute_intra_sse(data, a, b, rounded=False), abs=1e-7
            )

    def test_rounded_errors(self, data):
        algebra = PrefixAlgebra(data)
        for a, b in all_buckets(data.size):
            np.testing.assert_allclose(
                rounded_suffix_errors(algebra, a, b),
                brute_suffix_errors(data, a, b, rounded=True),
            )
            np.testing.assert_allclose(
                rounded_prefix_errors(algebra, a, b),
                brute_prefix_errors(data, a, b, rounded=True),
            )

    def test_rounded_intra_sse(self, data):
        algebra = PrefixAlgebra(data)
        for a, b in all_buckets(data.size):
            assert rounded_intra_sse(algebra, a, b) == pytest.approx(
                brute_intra_sse(data, a, b, rounded=True), abs=1e-7
            )

    def test_sap0_statistics(self, data):
        algebra = PrefixAlgebra(data)
        for a, b in all_buckets(data.size):
            suffix_sums = np.asarray([data[l : b + 1].sum() for l in range(a, b + 1)])
            prefix_sums = np.asarray([data[a : r + 1].sum() for r in range(a, b + 1)])
            value_s, var_s = algebra.sap0_suffix(a, b)
            value_p, var_p = algebra.sap0_prefix(a, b)
            assert value_s == pytest.approx(suffix_sums.mean())
            assert var_s == pytest.approx(((suffix_sums - suffix_sums.mean()) ** 2).sum(), abs=1e-8)
            assert value_p == pytest.approx(prefix_sums.mean())
            assert var_p == pytest.approx(((prefix_sums - prefix_sums.mean()) ** 2).sum(), abs=1e-8)

    def test_sap1_fit_matches_polyfit(self, data):
        algebra = PrefixAlgebra(data)
        for a, b in all_buckets(data.size):
            if b == a:
                fit = algebra.sap1_suffix_fit(a, b)
                assert fit.ssr == 0.0
                continue
            lengths = np.arange(b - a + 1, 0, -1, dtype=float)
            sums = np.asarray([data[l : b + 1].sum() for l in range(a, b + 1)])
            slope, intercept = np.polyfit(lengths, sums, 1)
            fit = algebra.sap1_suffix_fit(a, b)
            assert fit.slope == pytest.approx(slope, abs=1e-8)
            assert fit.intercept == pytest.approx(intercept, abs=1e-8)
            residuals = sums - (fit.slope * lengths + fit.intercept)
            assert fit.ssr == pytest.approx((residuals**2).sum(), abs=1e-7)

    def test_sap1_ssr_rows_match_scalar_fits(self, data):
        algebra = PrefixAlgebra(data)
        for a in range(data.size):
            bs = np.arange(a, data.size)
            row_suffix = algebra.sap1_suffix_ssr(a, bs)
            row_prefix = algebra.sap1_prefix_ssr(a, bs)
            for offset, b in enumerate(bs.tolist()):
                assert row_suffix[offset] == pytest.approx(
                    algebra.sap1_suffix_fit(a, b).ssr, abs=1e-7
                )
                assert row_prefix[offset] == pytest.approx(
                    algebra.sap1_prefix_fit(a, b).ssr, abs=1e-7
                )


class TestVectorisedOverB:
    def test_array_b_matches_scalars(self):
        data = np.asarray([3, 1, 4, 1, 5, 9, 2, 6], dtype=float)
        algebra = PrefixAlgebra(data)
        for a in range(data.size):
            bs = np.arange(a, data.size)
            s1_row, s2_row = algebra.suffix_error_moments(a, bs)
            p1_row, p2_row = algebra.prefix_error_moments(a, bs)
            intra_row = algebra.intra_sse(a, bs)
            for offset, b in enumerate(bs.tolist()):
                s1, s2 = algebra.suffix_error_moments(a, b)
                p1, p2 = algebra.prefix_error_moments(a, b)
                assert s1_row[offset] == pytest.approx(s1)
                assert s2_row[offset] == pytest.approx(s2)
                assert p1_row[offset] == pytest.approx(p1)
                assert p2_row[offset] == pytest.approx(p2)
                assert intra_row[offset] == pytest.approx(algebra.intra_sse(a, b))


class TestRowKernel:
    """The vectorised row kernel must match the per-bucket oracles of
    :mod:`tests.reference.prefix` *bitwise* on integral data — the OPT-A DP keys integer Lambda states
    off these values, so approximate agreement is not enough."""

    @pytest.mark.parametrize("data", DATASETS, ids=["single", "paper", "zeros", "mixed"])
    def test_row_matches_scalar_exactly(self, data):
        algebra = PrefixAlgebra(data)
        for a in range(data.size):
            s1, s2, p1, p2, intra = algebra.rounded_bucket_terms_row(a)
            for offset, b in enumerate(range(a, data.size)):
                scalar = rounded_bucket_terms(algebra, a, b)
                assert s1[offset] == scalar[0]
                assert s2[offset] == scalar[1]
                assert p1[offset] == scalar[2]
                assert p2[offset] == scalar[3]
                assert intra[offset] == scalar[4]

    def test_row_matches_brute_force(self):
        data = DATASETS[3]
        algebra = PrefixAlgebra(data)
        for a in range(data.size):
            s1, s2, p1, p2, intra = algebra.rounded_bucket_terms_row(a)
            for offset, b in enumerate(range(a, data.size)):
                suffix = brute_suffix_errors(data, a, b, rounded=True)
                prefix = brute_prefix_errors(data, a, b, rounded=True)
                assert s1[offset] == pytest.approx(suffix.sum())
                assert s2[offset] == pytest.approx((suffix**2).sum())
                assert p1[offset] == pytest.approx(prefix.sum())
                assert p2[offset] == pytest.approx((prefix**2).sum())
                assert intra[offset] == pytest.approx(
                    brute_intra_sse(data, a, b, rounded=True), abs=1e-7
                )

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=16),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_property_row_matches_scalar(self, data, seed):
        data = np.asarray(data, dtype=float)
        rng = np.random.default_rng(seed)
        a = int(rng.integers(0, data.size))
        algebra = PrefixAlgebra(data)
        s1, s2, p1, p2, intra = algebra.rounded_bucket_terms_row(a)
        for offset, b in enumerate(range(a, data.size)):
            scalar = rounded_bucket_terms(algebra, a, b)
            assert (s1[offset], s2[offset], p1[offset], p2[offset], intra[offset]) == scalar


class TestRoundHalfUp:
    def test_half_goes_up(self):
        assert round_half_up(0.5) == 1.0
        assert round_half_up(1.5) == 2.0
        assert round_half_up(-0.5) == 0.0

    def test_vectorised(self):
        np.testing.assert_array_equal(
            round_half_up([0.4, 0.5, 0.6, -1.2]), [0.0, 1.0, 1.0, -1.0]
        )


class TestWeightedPointCost:
    def test_uniform_weights_reduce_to_variance(self):
        data = np.asarray([2, 8, 4, 4, 0, 6], dtype=float)
        costs = WeightedPointCost(data)
        for a in range(data.size):
            for b in range(a, data.size):
                bucket = data[a : b + 1]
                assert costs.bucket_cost(a, b) == pytest.approx(
                    ((bucket - bucket.mean()) ** 2).sum(), abs=1e-9
                )
                assert costs.bucket_value(a, b) == pytest.approx(bucket.mean())

    def test_weighted_cost_matches_brute_force(self):
        rng = np.random.default_rng(5)
        data = rng.integers(0, 30, 9).astype(float)
        weights = rng.random(9) + 0.01
        costs = WeightedPointCost(data, weights)
        for a in range(9):
            for b in range(a, 9):
                w = weights[a : b + 1]
                v = data[a : b + 1]
                mu = (w * v).sum() / w.sum()
                assert costs.bucket_value(a, b) == pytest.approx(mu)
                assert costs.bucket_cost(a, b) == pytest.approx(
                    (w * (v - mu) ** 2).sum(), abs=1e-9
                )

    def test_zero_weight_bucket_costs_nothing(self):
        data = np.asarray([1, 2, 3], dtype=float)
        costs = WeightedPointCost(data, np.zeros(3))
        assert costs.bucket_cost(0, 2) == 0.0
        # Fallback value is the plain mean.
        assert costs.bucket_value(0, 2) == pytest.approx(2.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="same shape"):
            WeightedPointCost([1.0, 2.0], [1.0])


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=14),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_random_buckets(data, seed):
    """Closed forms agree with brute force on arbitrary integer vectors."""
    data = np.asarray(data, dtype=float)
    rng = np.random.default_rng(seed)
    a = int(rng.integers(0, data.size))
    b = int(rng.integers(a, data.size))
    algebra = PrefixAlgebra(data)
    assert algebra.intra_sse(a, b) == pytest.approx(
        brute_intra_sse(data, a, b, rounded=False), abs=1e-6
    )
    assert rounded_intra_sse(algebra, a, b) == pytest.approx(
        brute_intra_sse(data, a, b, rounded=True), abs=1e-6
    )
    s1, s2 = algebra.suffix_error_moments(a, b)
    errors = brute_suffix_errors(data, a, b, rounded=False)
    assert s1 == pytest.approx(errors.sum(), abs=1e-6)
    assert s2 == pytest.approx((errors**2).sum(), abs=1e-6)
