"""Build-kernel benchmark: vectorised OPT-A precompute vs the scalar path.

The scalar path is the per-bucket oracle in :mod:`tests.reference`
(``precompute_terms_scalar`` and ``fill_layer_scalar``), which never
calls the kernels it is timed and checked against.

The kernel layer's contract is "same bits, much faster".  This benchmark
pins both halves on a fixed instance:

* speed — the row-kernel precompute must beat the per-bucket scalar
  precompute by at least 5x at n = 512 (it is the O(n^3) wall the exact
  build used to hit);
* exactness — every term matrix must match the scalar path bitwise, and
  a full ``opt_a_search`` run under the scalar kernels must reproduce
  the fast build's boundaries and objective exactly.

The measured trajectory is written to ``BENCH_build_kernels.json`` at
the repo root so successive sessions can track the kernels' performance.
"""

import json
import pathlib
import time

import numpy as np
import pytest

import repro.core.opt_a as opt_a_module
import repro.internal.dp as dp_module
from repro.core.opt_a import _precompute_terms, opt_a_search
from repro.internal.prefix import PrefixAlgebra
from tests.reference.dp import fill_layer_scalar
from tests.reference.opt_a import precompute_terms_scalar

REPO_ROOT = pathlib.Path(__file__).parent.parent
SPEEDUP_GATE = 5.0
BENCH_N = 512


def _pinned_instance(n: int) -> np.ndarray:
    rng = np.random.default_rng(1999)
    return rng.integers(0, 100, n).astype(np.float64)


def test_vectorised_precompute_speed_and_exactness(record_result):
    data = _pinned_instance(BENCH_N)
    algebra = PrefixAlgebra(data)

    start = time.perf_counter()
    slow = precompute_terms_scalar(algebra)
    scalar_seconds = time.perf_counter() - start

    vectorised_seconds = np.inf
    for _ in range(3):
        start = time.perf_counter()
        fast = _precompute_terms(algebra)
        vectorised_seconds = min(vectorised_seconds, time.perf_counter() - start)

    for field in ("s1", "s2", "p1", "p2", "intra"):
        np.testing.assert_array_equal(
            getattr(fast, field),
            getattr(slow, field),
            err_msg=f"term matrix {field} diverged from the scalar path",
        )

    speedup = scalar_seconds / vectorised_seconds
    payload = {
        "benchmark": "build_kernels",
        "n": BENCH_N,
        "seed": 1999,
        "scalar_precompute_seconds": round(scalar_seconds, 4),
        "vectorised_precompute_seconds": round(vectorised_seconds, 4),
        "speedup": round(speedup, 2),
        "gate": SPEEDUP_GATE,
        "bit_identical": True,
    }
    (REPO_ROOT / "BENCH_build_kernels.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    record_result(
        "build_kernels",
        "\n".join(
            [
                f"OPT-A bucket-term precompute, n={BENCH_N} (pinned seed 1999)",
                f"  scalar path      {scalar_seconds:8.3f} s",
                f"  row kernel       {vectorised_seconds:8.3f} s  (best of 3)",
                f"  speedup          {speedup:8.1f} x  (gate >= {SPEEDUP_GATE}x)",
            ]
        ),
    )
    assert speedup >= SPEEDUP_GATE, (
        f"vectorised precompute only {speedup:.1f}x faster than scalar "
        f"(gate {SPEEDUP_GATE}x): {scalar_seconds:.3f}s vs {vectorised_seconds:.3f}s"
    )


def test_full_build_bit_identical_under_scalar_kernels():
    """End-to-end: opt_a_search under the scalar kernels reproduces the
    fast build exactly (boundaries, objective, stored values)."""
    data = _pinned_instance(128) % 5  # small mass keeps the DP light
    fast = opt_a_search(data, 8)

    with pytest.MonkeyPatch.context() as scalar_kernels:
        scalar_kernels.setattr(
            opt_a_module, "_precompute_terms", precompute_terms_scalar
        )
        scalar_kernels.setattr(dp_module, "_fill_layer", fill_layer_scalar)
        slow = opt_a_search(data, 8)

    np.testing.assert_array_equal(fast.lefts, slow.lefts)
    assert fast.objective == slow.objective
    np.testing.assert_array_equal(fast.histogram.values, slow.histogram.values)
    assert fast.state_count == slow.state_count
    assert fast.pruned == slow.pruned
