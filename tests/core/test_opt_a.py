"""Tests for the OPT-A pseudo-polynomial dynamic programs.

The central claims verified here:

* the DP's objective equals the exact SSE of the histogram it returns
  (computed by an independent evaluator over all ranges);
* on small inputs, exhaustive enumeration over every bucketing confirms
  the DP finds the global optimum of the rounded answering procedure;
* the warm-up ``E*`` DP (Section 2.1.1) and the improved ``F*`` DP
  (Section 2.1.2) agree;
* pruning with a valid upper bound never changes the optimum.
"""

import numpy as np
import pytest

from repro.core.a0 import build_a0
from repro.core.opt_a import build_opt_a, build_opt_a_warmup, opt_a_search
from repro.errors import BudgetExceededError, InvalidDataError
from repro.queries.evaluation import sse
from tests.helpers import ReferenceAverageHistogram, brute_sse, enumerate_lefts_at_most

SMALL_ARRAYS = [
    np.asarray([1, 3, 5, 11, 12, 13], dtype=float),  # paper's example
    np.asarray([9, 0, 0, 9, 9, 0, 0, 9], dtype=float),
    np.asarray([5, 5, 5, 5, 5], dtype=float),
    np.asarray([0, 1, 0, 7, 2, 2, 8], dtype=float),
]


@pytest.mark.parametrize("data", SMALL_ARRAYS, ids=["paper", "alt", "flat", "mixed"])
@pytest.mark.parametrize("max_buckets", [1, 2, 3])
class TestExhaustiveOptimality:
    def test_dp_matches_global_minimum(self, data, max_buckets):
        result = opt_a_search(data, max_buckets)
        best = min(
            brute_sse(
                ReferenceAverageHistogram(data, lefts, rounding="per_piece"), data
            )
            for lefts in enumerate_lefts_at_most(data.size, max_buckets)
        )
        assert result.objective == pytest.approx(best, abs=1e-6)

    def test_objective_equals_evaluated_sse(self, data, max_buckets):
        result = opt_a_search(data, max_buckets)
        assert result.objective == pytest.approx(
            sse(result.histogram, data), abs=1e-6
        )

    def test_warmup_agrees_with_improved(self, data, max_buckets):
        improved = opt_a_search(data, max_buckets)
        warmup = build_opt_a_warmup(data, max_buckets)
        assert warmup.objective == pytest.approx(improved.objective, abs=1e-6)


class TestHalfUpLambdaKeys:
    """Both DPs key Lambda with round_half_up (the answering path's
    rounding), so they must still cross-validate after the switch from
    the builtin banker's round()."""

    PINNED = [
        np.asarray([7, 0, 0, 2, 9, 9, 1, 4, 4, 4], dtype=float),
        np.asarray([100, 3, 57, 0, 21, 21, 8], dtype=float),
    ]

    @pytest.mark.parametrize("data", PINNED, ids=["mixed", "heavy"])
    @pytest.mark.parametrize("max_buckets", [2, 3])
    def test_pinned_cross_validation(self, data, max_buckets):
        improved = opt_a_search(data, max_buckets)
        warmup = build_opt_a_warmup(data, max_buckets)
        assert warmup.objective == pytest.approx(improved.objective, abs=1e-6)
        np.testing.assert_array_equal(warmup.lefts, improved.lefts)


class TestDPBehaviour:
    def test_flat_data_zero_error(self):
        data = np.full(10, 7.0)
        result = opt_a_search(data, 2)
        assert result.objective == 0.0

    def test_monotone_in_buckets(self, medium_data):
        errors = [opt_a_search(medium_data, k).objective for k in (1, 2, 4, 6)]
        assert all(e1 >= e2 - 1e-6 for e1, e2 in zip(errors, errors[1:]))

    def test_never_worse_than_a0_same_budget(self, medium_data):
        """A0 uses the same representation, so OPT-A must dominate it."""
        for buckets in (2, 4, 6):
            a0_sse = sse(build_a0(medium_data, buckets, rounding="per_piece"), medium_data)
            assert opt_a_search(medium_data, buckets).objective <= a0_sse + 1e-6

    def test_user_upper_bound_respected(self, small_data):
        base = opt_a_search(small_data, 3)
        bounded = opt_a_search(small_data, 3, upper_bound=base.objective)
        assert bounded.objective == pytest.approx(base.objective, abs=1e-6)

    def test_too_small_upper_bound_raises(self, small_data):
        base = opt_a_search(small_data, 3)
        with pytest.raises(BudgetExceededError, match="below the optimal"):
            opt_a_search(small_data, 3, upper_bound=base.objective * 0.5 - 1)

    def test_max_states_budget_enforced(self, medium_data):
        with pytest.raises(BudgetExceededError, match="max_states"):
            opt_a_search(medium_data, 8, max_states=10, upper_bound=np.inf)

    def test_rejects_non_integral_data(self):
        with pytest.raises(InvalidDataError, match="integral"):
            opt_a_search([1.5, 2.0, 3.0], 2)

    def test_rejects_large_non_integral_data(self):
        """Regression: allclose's default rtol scales with magnitude, so
        a large half-integer used to slip through the integrality check
        and get silently rounded."""
        with pytest.raises(InvalidDataError, match="integral"):
            opt_a_search([1_000_000.5, 2.0, 3.0], 2)

    def test_row_precompute_matches_scalar_bitwise(self, small_data):
        from repro.core.opt_a import _precompute_terms
        from repro.internal.prefix import PrefixAlgebra
        from tests.reference.opt_a import precompute_terms_scalar

        algebra = PrefixAlgebra(np.asarray(small_data, dtype=float))
        fast = _precompute_terms(algebra)
        slow = precompute_terms_scalar(algebra)
        for field in ("s1", "s2", "p1", "p2", "intra"):
            np.testing.assert_array_equal(
                getattr(fast, field), getattr(slow, field)
            )

    def test_build_opt_a_returns_labelled_histogram(self, small_data):
        hist = build_opt_a(small_data, 3)
        assert hist.name == "OPT-A"
        assert hist.storage_words() == 2 * hist.bucket_count
        assert hist.rounding == "per_piece"

    def test_buckets_cover_domain(self, small_data):
        result = opt_a_search(small_data, 4)
        assert result.lefts[0] == 0
        assert (np.diff(result.lefts) > 0).all()
        assert result.lefts[-1] < small_data.size


class TestPaperExample:
    """The worked example of Section 2.1.1: A = (1,3,5,11,12,13)."""

    def test_example_error_value(self):
        """With buckets (1,3) and (5,11) (averages 2 and 8), sum the
        squared errors of all 10 queries inside the length-4 prefix.

        Working through the definition by hand gives 34:
        1 + 0 + 9 + 0 + 1 + 4 + 1 + 9 + 0 + 9 (the paper's displayed
        expansion prints 36, but its own listed terms are garbled in the
        available text; every term below follows equation (1) exactly).
        """
        data = np.asarray([1, 3, 5, 11], dtype=float)
        hist = ReferenceAverageHistogram(data, [0, 2], rounding="none")
        total = brute_sse(hist, data)
        assert total == pytest.approx(34.0)

    def test_lambda_values_match_paper(self):
        """The paper reports sum of suffix errors = 4 and sum of squared
        suffix errors = 10 for the same partial bucketing."""
        from repro.internal.prefix import PrefixAlgebra

        data = np.asarray([1, 3, 5, 11], dtype=float)
        algebra = PrefixAlgebra(data)
        s1_first, s2_first = algebra.suffix_error_moments(0, 1)
        s1_second, s2_second = algebra.suffix_error_moments(2, 3)
        assert s1_first + s1_second == pytest.approx(4.0)
        assert s2_first + s2_second == pytest.approx(10.0)
