"""OPT-A: the exact range-optimal average histogram (Sections 2.1.1-2.1.2).

OPT-A stores one value per bucket — the bucket average — and answers
with equation (1), rounding each partial-bucket contribution to an
integer.  Finding the *range-optimal* bucket boundaries is hard because
inter-bucket queries couple distant buckets through the cross term
``2 * delta_suf(l) * delta_pre(r)``.  The paper's insight: the coupling
of a prefix bucketing with the future is summarised entirely by

    Lambda = sum over l <= i of delta_suf(l)

which is an *integer* (all answers are rounded), so a dynamic program
over states ``(i, k, Lambda)`` is exact and pseudo-polynomial.

This module implements both DPs from the paper:

* :func:`build_opt_a` / :func:`opt_a_search` — the improved algorithm of
  Section 2.1.2 over ``F*(i, k, Lambda)`` (Theorem 2), with sparse state
  sets, numpy group-by-minimum merging, and a sound branch-and-bound
  prune: the *realised* error of a partial bucketing (queries fully
  inside the prefix) only ever grows, so states whose realised error
  already exceeds a known upper bound (by default the A0 heuristic's
  true SSE) cannot complete to an optimum.

* :func:`build_opt_a_warmup` — the warm-up algorithm of Section 2.1.1
  over ``E*(i, k, Lambda_2, Lambda)`` (Theorem 1).  Asymptotically
  slower (two-dimensional state), kept for cross-validation and study;
  use it only on small inputs.

Both require integral data (scale and round otherwise — that is exactly
what :mod:`repro.core.opt_a_rounded` automates, with the Theorem 4
approximation guarantee).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.a0 import build_a0
from repro.core.histogram import AverageHistogram
from repro.errors import BudgetExceededError, InvalidDataError
from repro.internal.deadline import check_deadline
from repro.internal.prefix import PrefixAlgebra, round_half_up
from repro.internal.validation import as_frequency_vector, check_bucket_count
from repro.queries import evaluation

#: Default cap on the total number of DP states per layer.
DEFAULT_MAX_STATES = 2_000_000


@dataclass(frozen=True)
class OptAResult:
    """Outcome of the OPT-A dynamic program.

    Attributes
    ----------
    histogram:
        The optimal histogram (answering with per-piece rounding).
    objective:
        The DP's minimum SSE over all ranges — equals the histogram's
        exact SSE under the rounded answering procedure.
    lefts:
        Bucket start indices.
    state_count:
        Total number of ``(i, k, Lambda)`` states explored (a measure of
        the pseudo-polynomial cost).
    pruned:
        Number of states discarded by the upper-bound prune.
    """

    histogram: AverageHistogram
    objective: float
    lefts: np.ndarray
    state_count: int
    pruned: int


def _require_integral(data: np.ndarray) -> np.ndarray:
    # rtol must be 0: allclose's default relative term scales with the
    # frequency magnitude, so large half-integers (e.g. 1000000.5) would
    # silently pass the check and be rounded instead of rejected.
    if not np.allclose(data, np.round(data), rtol=0.0, atol=1e-9):
        raise InvalidDataError(
            "OPT-A's pseudo-polynomial DP requires integral frequencies "
            "(the paper's model); round the data or use build_opt_a_rounded"
        )
    return np.round(data)


@dataclass
class _BucketTerms:
    """Rounded statistics for every candidate bucket, precomputed once."""

    s1: np.ndarray  # (n, n): sum of rounded suffix errors of bucket [a, b]
    s2: np.ndarray  # sum of squared rounded suffix errors
    p1: np.ndarray  # sum of rounded prefix errors
    p2: np.ndarray  # sum of squared rounded prefix errors
    intra: np.ndarray  # rounded intra-bucket SSE


def _precompute_terms(algebra: PrefixAlgebra) -> _BucketTerms:
    """Rounded statistics of every candidate bucket via the row kernel.

    One :meth:`~repro.internal.prefix.PrefixAlgebra.rounded_bucket_terms_row`
    call per row start ``a`` — O(n) vectorised kernel dispatches instead
    of n(n+1)/2 per-bucket evaluations.  A module-level seam: the
    differential tests swap in a per-bucket scalar reference, which
    must agree bit for bit on the integral data the DP requires.
    """
    n = algebra.n
    shape = (n, n)
    s1 = np.zeros(shape)
    s2 = np.zeros(shape)
    p1 = np.zeros(shape)
    p2 = np.zeros(shape)
    intra = np.zeros(shape)
    for a in range(n):
        check_deadline("OPT-A bucket-term precompute")
        row_s1, row_s2, row_p1, row_p2, row_intra = algebra.rounded_bucket_terms_row(a)
        s1[a, a:] = row_s1
        s2[a, a:] = row_s2
        p1[a, a:] = row_p1
        p2[a, a:] = row_p2
        intra[a, a:] = row_intra
    return _BucketTerms(s1=s1, s2=s2, p1=p1, p2=p2, intra=intra)


class _StateBlock:
    """Sparse DP states at one ``(k, i)`` cell, keyed by integer Lambda."""

    __slots__ = ("lam", "f", "sum_s2", "parent_j", "parent_idx")

    def __init__(self, lam, f, sum_s2, parent_j, parent_idx) -> None:
        self.lam = lam
        self.f = f
        self.sum_s2 = sum_s2
        self.parent_j = parent_j
        self.parent_idx = parent_idx

    def __len__(self) -> int:
        return int(self.lam.size)


def _merge_candidates(lam, f, sum_s2, parent_j, parent_idx) -> _StateBlock:
    """Group candidates by Lambda, keeping the minimum-F representative."""
    order = np.lexsort((f, lam))
    lam_sorted = lam[order]
    keep = np.empty(lam_sorted.size, dtype=bool)
    keep[0] = True
    np.not_equal(lam_sorted[1:], lam_sorted[:-1], out=keep[1:])
    chosen = order[keep]
    return _StateBlock(
        lam=lam[chosen],
        f=f[chosen],
        sum_s2=sum_s2[chosen],
        parent_j=parent_j[chosen],
        parent_idx=parent_idx[chosen],
    )


def opt_a_search(
    data,
    n_buckets: int,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    upper_bound: float | None = None,
) -> OptAResult:
    """Run the improved OPT-A dynamic program (Theorem 2) and backtrack.

    Parameters
    ----------
    data:
        Integral frequency vector.
    n_buckets:
        Bucket budget ``B`` (at most; fewer buckets are allowed).
    max_states:
        Safety cap on the total live states in any layer; exceeding it
        raises :class:`~repro.errors.BudgetExceededError` with a pointer
        to :func:`~repro.core.opt_a_rounded.build_opt_a_rounded`.
    upper_bound:
        Any value known to be >= the optimal SSE, used to prune states
        whose already-realised error exceeds it.  Defaults to the true
        SSE of the A0 heuristic with the same budget (cheap to compute
        and usually tight).

    Returns
    -------
    OptAResult
    """
    data = _require_integral(as_frequency_vector(data))
    n = data.size
    n_buckets = check_bucket_count(n_buckets, n)
    algebra = PrefixAlgebra(data)
    terms = _precompute_terms(algebra)

    if upper_bound is None:
        heuristic = build_a0(data, n_buckets, rounding="per_piece")
        upper_bound = evaluation.sse(heuristic, data)
    upper_bound = float(upper_bound) + 1e-6

    # layers[k][i] -> _StateBlock for prefixes of length i using exactly
    # k non-empty buckets.  i ranges 1..n; bucket [j, i-1] appended last.
    layers: list[dict[int, _StateBlock]] = [dict() for _ in range(n_buckets + 1)]
    state_count = 0
    pruned = 0

    # k = 1: single bucket [0, i-1].
    for i in range(1, n + 1):
        a, b = 0, i - 1
        f = terms.intra[a, b] + (n - i) * terms.s2[a, b]
        realised = terms.intra[a, b]
        if realised > upper_bound:
            pruned += 1
            continue
        layers[1][i] = _StateBlock(
            # round_half_up, not builtin round(): the answering path
            # standardises on half-up for cross-platform determinism and
            # banker's rounding would key .5 Lambdas differently.
            lam=np.asarray([int(round_half_up(terms.s1[a, b]))], dtype=np.int64),
            f=np.asarray([f], dtype=np.float64),
            sum_s2=np.asarray([terms.s2[a, b]], dtype=np.float64),
            parent_j=np.asarray([0], dtype=np.int32),
            parent_idx=np.asarray([0], dtype=np.int32),
        )
        state_count += 1

    for k in range(2, n_buckets + 1):
        prev = layers[k - 1]
        layer_states = 0
        for i in range(k, n + 1):
            check_deadline("OPT-A DP layer")
            cand_lam, cand_f, cand_s2 = [], [], []
            cand_pj, cand_pi = [], []
            for j in range(k - 1, i):
                block = prev.get(j)
                if block is None:
                    continue
                a, b = j, i - 1
                add_const = terms.intra[a, b] + j * terms.p2[a, b] + (n - i) * terms.s2[a, b]
                new_f = block.f + add_const + 2.0 * block.lam * terms.p1[a, b]
                new_lam = block.lam + np.int64(round_half_up(terms.s1[a, b]))
                new_s2 = block.sum_s2 + terms.s2[a, b]
                realised = new_f - (n - i) * new_s2
                ok = realised <= upper_bound
                pruned += int(np.count_nonzero(~ok))
                if not ok.any():
                    continue
                cand_lam.append(new_lam[ok])
                cand_f.append(new_f[ok])
                cand_s2.append(new_s2[ok])
                cand_pj.append(np.full(int(ok.sum()), j, dtype=np.int32))
                cand_pi.append(np.nonzero(ok)[0].astype(np.int32))
            if not cand_lam:
                continue
            block = _merge_candidates(
                np.concatenate(cand_lam),
                np.concatenate(cand_f),
                np.concatenate(cand_s2),
                np.concatenate(cand_pj),
                np.concatenate(cand_pi),
            )
            layers[k][i] = block
            layer_states += len(block)
            if layer_states > max_states:
                raise BudgetExceededError(
                    f"OPT-A DP exceeded max_states={max_states} at layer k={k} "
                    f"(n={n}, total sum={algebra.total():.0f}); rescale the data "
                    f"with build_opt_a_rounded or raise max_states"
                )
        state_count += layer_states

    # Best final state over all k <= B.
    best = (np.inf, -1, -1)  # (F, k, state index)
    for k in range(1, n_buckets + 1):
        block = layers[k].get(n)
        if block is None:
            continue
        idx = int(np.argmin(block.f))
        if block.f[idx] < best[0]:
            best = (float(block.f[idx]), k, idx)
    if best[1] < 0:
        raise BudgetExceededError(
            "OPT-A DP pruned every candidate; the supplied upper_bound "
            f"({upper_bound:.6g}) is below the optimal SSE"
        )

    # Backtrack bucket start indices.
    lefts: list[int] = []
    _, k, idx = best
    i = n
    while i > 0:
        block = layers[k][i]
        j = int(block.parent_j[idx])
        lefts.append(j)
        idx = int(block.parent_idx[idx])
        i, k = j, k - 1
    lefts.reverse()
    lefts_arr = np.asarray(lefts, dtype=np.int64)

    histogram = AverageHistogram.from_boundaries(
        data, lefts_arr, rounding="per_piece", label="OPT-A"
    )
    return OptAResult(
        histogram=histogram,
        objective=best[0],
        lefts=lefts_arr,
        state_count=state_count,
        pruned=pruned,
    )


def build_opt_a(
    data,
    n_buckets: int,
    *,
    max_states: int = DEFAULT_MAX_STATES,
    upper_bound: float | None = None,
) -> AverageHistogram:
    """Build the exact range-optimal OPT-A histogram (Theorems 1-2)."""
    return opt_a_search(
        data, n_buckets, max_states=max_states, upper_bound=upper_bound
    ).histogram


def build_opt_a_warmup(
    data,
    n_buckets: int,
    *,
    max_states: int = 500_000,
) -> OptAResult:
    """The warm-up DP of Section 2.1.1 over states ``(i, k, Lambda_2, Lambda)``.

    Kept for study and cross-validation against :func:`opt_a_search`;
    the two agree on the optimal objective.  The two-dimensional state
    makes this considerably more expensive — use small inputs.
    """
    data = _require_integral(as_frequency_vector(data))
    n = data.size
    n_buckets = check_bucket_count(n_buckets, n)
    algebra = PrefixAlgebra(data)
    terms = _precompute_terms(algebra)

    # States at (k, i): dict mapping (lam, lam2) -> (E, parent_j, parent_key).
    layers: list[dict[int, dict[tuple[int, int], tuple[float, int, tuple]]]] = [
        dict() for _ in range(n_buckets + 1)
    ]
    state_count = 0
    for i in range(1, n + 1):
        a, b = 0, i - 1
        key = (int(round_half_up(terms.s1[a, b])), int(round_half_up(terms.s2[a, b])))
        layers[1][i] = {key: (float(terms.intra[a, b]), 0, None)}
        state_count += 1

    for k in range(2, n_buckets + 1):
        for i in range(k, n + 1):
            check_deadline("warm-up OPT-A DP layer")
            cell: dict[tuple[int, int], tuple[float, int, tuple]] = {}
            for j in range(k - 1, i):
                prev_cell = layers[k - 1].get(j)
                if not prev_cell:
                    continue
                a, b = j, i - 1
                length = i - j
                add_const = terms.intra[a, b] + j * terms.p2[a, b]
                for (lam, lam2), (e_val, _, _) in prev_cell.items():
                    new_e = e_val + add_const + length * lam2 + 2.0 * lam * terms.p1[a, b]
                    new_key = (
                        lam + int(round_half_up(terms.s1[a, b])),
                        lam2 + int(round_half_up(terms.s2[a, b])),
                    )
                    old = cell.get(new_key)
                    if old is None or new_e < old[0]:
                        cell[new_key] = (new_e, j, (lam, lam2))
            if cell:
                layers[k][i] = cell
                state_count += len(cell)
                if state_count > max_states:
                    raise BudgetExceededError(
                        f"warm-up OPT-A DP exceeded max_states={max_states}; "
                        "use opt_a_search (the improved algorithm) instead"
                    )

    best = (np.inf, -1, None)
    for k in range(1, n_buckets + 1):
        cell = layers[k].get(n)
        if not cell:
            continue
        for key, (e_val, _, _) in cell.items():
            if e_val < best[0]:
                best = (e_val, k, key)
    objective, k, key = best

    lefts: list[int] = []
    i = n
    while i > 0:
        e_val, j, parent_key = layers[k][i][key]
        lefts.append(j)
        i, k, key = j, k - 1, parent_key
    lefts.reverse()
    lefts_arr = np.asarray(lefts, dtype=np.int64)
    histogram = AverageHistogram.from_boundaries(
        data, lefts_arr, rounding="per_piece", label="OPT-A"
    )
    return OptAResult(
        histogram=histogram,
        objective=float(objective),
        lefts=lefts_arr,
        state_count=state_count,
        pruned=0,
    )
