"""Per-bucket rounded statistics for the OPT-A dynamic program.

Functions of a :class:`~repro.internal.prefix.PrefixAlgebra` that read
only its prefix-sum array ``p`` and bucket means, so they check the
vectorised row kernel
:meth:`~repro.internal.prefix.PrefixAlgebra.rounded_bucket_terms_row`
without calling it.  Each costs O(L) for a bucket of length ``L``.  On
integral data every value is an exact integer, so the row kernel must
match them bit for bit.
"""

import numpy as np

from repro.internal.prefix import round_half_up


def rounded_suffix_errors(algebra, a: int, b: int) -> np.ndarray:
    """Integer suffix errors ``s(l,b) - round((b-l+1)*mean)`` for ``l=a..b``."""
    lengths = np.arange(b - a + 1, 0, -1, dtype=np.float64)
    exact = algebra.p[b + 1] - algebra.p[a : b + 1]
    return exact - round_half_up(lengths * algebra.bucket_mean(a, b))


def rounded_prefix_errors(algebra, a: int, b: int) -> np.ndarray:
    """Integer prefix errors ``s(a,r) - round((r-a+1)*mean)`` for ``r=a..b``."""
    lengths = np.arange(1, b - a + 2, dtype=np.float64)
    exact = algebra.p[a + 1 : b + 2] - algebra.p[a]
    return exact - round_half_up(lengths * algebra.bucket_mean(a, b))


def rounded_intra_sse(algebra, a: int, b: int) -> float:
    """Intra-bucket SSE with per-query integer rounding, in O(L) time.

    With ``q_t = s(a, a+t-1)`` (``q_0 = 0``), every sub-range sum is a
    difference ``q_j - q_i`` whose rounded estimate depends only on the
    gap ``m = j - i``, so the SSE is

        sum_{i<j} (q_j - q_i)^2
        - 2 * sum_m r_m * g_m  +  sum_m (L+1-m) * r_m^2

    with ``r_m = round(m * mean)`` and ``g_m`` the sum of ``q_j - q_i``
    over pairs at gap ``m`` (DESIGN.md section 4).
    """
    L = b - a + 1
    q = algebra.p[a : b + 2] - algebra.p[a]
    lengths = np.arange(1, L + 1, dtype=np.float64)
    r = round_half_up(lengths * algebra.bucket_mean(a, b))
    cum_q = np.concatenate(([0.0], np.cumsum(q)))
    total_q = cum_q[L + 1]
    total_q2 = float((q * q).sum())
    pairs_all = (L + 1) * total_q2 - total_q * total_q
    # g[m-1] = (sum_{t=m..L} q_t) - (sum_{t=0..L-m} q_t).
    g = (total_q - cum_q[1 : L + 1]) - cum_q[L:0:-1]
    counts = np.arange(L, 0, -1, dtype=np.float64)
    value = pairs_all - 2.0 * float((r * g).sum()) + float((counts * r * r).sum())
    return max(value, 0.0)


def rounded_bucket_terms(algebra, a: int, b: int) -> tuple[float, ...]:
    """``(S1, S2, P1, P2, intra)`` of bucket ``[a, b]``.

    Sums and sums of squares of the rounded suffix and prefix errors,
    and the rounded intra-bucket SSE: one column of the row kernel.
    """
    suf = rounded_suffix_errors(algebra, a, b)
    pre = rounded_prefix_errors(algebra, a, b)
    return (
        float(suf.sum()),
        float((suf * suf).sum()),
        float(pre.sum()),
        float((pre * pre).sum()),
        rounded_intra_sse(algebra, a, b),
    )
