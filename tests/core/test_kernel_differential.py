"""Registry-wide differential test: fast kernels vs scalar references.

The vectorised build kernels (the OPT-A row precompute and the interval
DP's whole-layer fill) claim *bitwise* equality with the scalar oracles
in :mod:`tests.reference`.  This suite rebuilds every registry synopsis
twice — once with the fast kernels, once with the oracles monkeypatched
in — and requires identical answers on every range, identical storage,
and an identical frozen :class:`~repro.core.builders.ErrorPrediction`.
"""

import numpy as np
import pytest

import repro.core.opt_a as opt_a_module
import repro.internal.dp as dp_module
from repro.core.builders import (
    BUILDER_REGISTRY,
    build_by_name,
    predict_sse_per_query,
)
from repro.queries.workload import all_ranges
from tests.reference.dp import fill_layer_scalar
from tests.reference.opt_a import precompute_terms_scalar


def _small_instance():
    # Small domain and mass: the OPT-A DP is pseudo-polynomial, and the
    # scalar reference path is the slow one by design.
    rng = np.random.default_rng(2001)
    return rng.integers(0, 6, 48).astype(float)


BUDGET_WORDS = 24


def _build_kwargs(name, data):
    if name == "workload-a0":
        from repro.queries.workload import biased_ranges

        return {"workload": biased_ranges(data.size, 64, seed=7)}
    return {}


@pytest.mark.parametrize("name", sorted(BUILDER_REGISTRY))
def test_builder_bitwise_identical_under_scalar_kernels(name):
    data = _small_instance()
    workload = all_ranges(data.size)
    lows, highs = workload.lows, workload.highs
    # The dyadic sketch needs several words per level; everything else
    # gets the same small budget.
    budget = 256 if name == "sketch-cm" else BUDGET_WORDS
    kwargs = _build_kwargs(name, data)

    with pytest.MonkeyPatch.context() as scalar_kernels:
        scalar_kernels.setattr(
            opt_a_module, "_precompute_terms", precompute_terms_scalar
        )
        scalar_kernels.setattr(dp_module, "_fill_layer", fill_layer_scalar)
        scalar_est = build_by_name(name, data, budget, **kwargs)
        scalar_answers = np.asarray(scalar_est.estimate_many(lows, highs))
        scalar_prediction = predict_sse_per_query(scalar_est, data)

    fast_est = build_by_name(name, data, budget, **kwargs)
    fast_answers = np.asarray(fast_est.estimate_many(lows, highs))
    fast_prediction = predict_sse_per_query(fast_est, data)

    np.testing.assert_array_equal(fast_answers, scalar_answers)
    assert fast_est.storage_words() == scalar_est.storage_words()
    assert fast_prediction == scalar_prediction
