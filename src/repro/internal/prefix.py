"""Prefix-sum algebra with O(1) per-bucket statistics.

This module is the numeric backbone of every histogram construction in
the library.  For a fixed frequency vector ``A[0..n-1]`` it precomputes
a handful of cumulative arrays and then answers, in constant time per
bucket ``[a, b]`` (0-indexed, inclusive):

* the exact intra-bucket sum-squared error of the bucket-average
  estimator over all sub-ranges of the bucket,
* first and second moments of the *suffix errors*
  ``delta_suf(l) = s(l, b) - (b - l + 1) * mean`` and the *prefix errors*
  ``delta_pre(r) = s(a, r) - (r - a + 1) * mean``,
* the SAP0 statistics (mean suffix/prefix sums and their variances), and
* the SAP1 statistics (least-squares linear fits of suffix/prefix sums
  against piece length, with residual sums of squares).

Derivations are written out in DESIGN.md section 4.  The key identities:
with ``p`` the prefix-sum array (``p[0] = 0``) and
``v_t = p[t] - p[a] - (t - a) * mean`` for ``t = a..b+1``, every
sub-range error of the average estimator is a difference ``v_{r+1} -
v_l``, so the intra-bucket SSE over all pairs equals
``m * sum(v^2) - (sum v)^2`` with ``m = L + 1`` values.

Every closed-form statistic accepts ``a`` and ``b`` as scalars or
broadcastable integer arrays, and the algebra may be built over a
``[shards, n]`` stack of equal-width vectors: results then carry a
leading shard axis.  One call thus evaluates the cost of every
``(shard, a, b)`` a stacked dynamic program needs; each element goes
through the same floating-point operations as a scalar call, so stacked
and one-bucket-at-a-time results are bit-identical.

:meth:`PrefixAlgebra.rounded_bucket_terms_row` supports the paper's
OPT-A answering procedure, which rounds every partial-bucket
contribution to a nearby integer; those errors are integral, which is
what makes the pseudo-polynomial dynamic program of Section 2.1
well-defined.  Rounded statistics cost O(L) per bucket rather than
O(1), so the kernel evaluates every bucket ``[a, a..n-1]`` of a row in
one batch of numpy passes: the OPT-A precompute makes O(n) kernel
dispatches instead of n(n+1)/2 per-bucket evaluations.

On integral data every rounded statistic is an exact integer computed
purely with integer-valued float64 arithmetic, so any summation order
gives the same bits (every partial sum is exact below 2**53).  That
invariant is what lets the OPT-A differential tests demand equality,
not closeness, against a per-bucket scalar reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.internal.validation import as_frequency_rows, as_frequency_vector


def _with_leading_zero(cumulative: np.ndarray) -> np.ndarray:
    """Prepend a 0 to the last axis of a cumulative-sum array."""
    zero = np.zeros(cumulative.shape[:-1] + (1,))
    return np.concatenate((zero, cumulative), axis=-1)


def round_half_up(values):
    """Round to the nearest integer, ties upward (x.5 -> x+1).

    The paper allows "rounding to a nearby integer in an arbitrary way";
    we fix half-up so builds are deterministic across platforms
    (``np.rint`` would use banker's rounding).
    """
    return np.floor(np.asarray(values, dtype=np.float64) + 0.5)


@dataclass(frozen=True)
class SuffixPrefixFit:
    """Least-squares fit of piece sums against piece length (SAP1).

    ``estimate(length) = slope * length + intercept``; ``ssr`` is the
    residual sum of squares of the fit over the bucket.
    """

    slope: float
    intercept: float
    ssr: float


class PrefixAlgebra:
    """Constant-time bucket statistics over a fixed array.

    Parameters
    ----------
    data:
        One-dimensional non-negative frequency vector, or a ``[shards,
        n]`` stack of them (closed-form statistics only; the
        rounded row kernel and the range sums take one vector).

    Notes
    -----
    All bucket arguments are 0-indexed inclusive pairs ``(a, b)`` with
    ``0 <= a <= b < n``; ``a`` and ``b`` may be integer arrays.  Bounds
    are *not* re-checked here (this is an internal hot path); public
    builders validate once at their boundary.
    """

    def __init__(self, data) -> None:
        data = np.asarray(data, dtype=np.float64)
        self.data = as_frequency_rows(data) if data.ndim == 2 else as_frequency_vector(data)
        self.n = int(self.data.shape[-1])
        # p[t] = sum of data[0..t-1]; length n+1 (per row of a stack).
        self.p = _with_leading_zero(np.cumsum(self.data, axis=-1))
        # Cumulative sums over the prefix array itself, with a leading 0
        # so that sum_{t=a..b} f(t) == F[b+1] - F[a].
        t_idx = np.arange(self.n + 1, dtype=np.float64)
        self._cum_p = _with_leading_zero(np.cumsum(self.p, axis=-1))
        self._cum_p2 = _with_leading_zero(np.cumsum(self.p * self.p, axis=-1))
        self._cum_tp = _with_leading_zero(np.cumsum(t_idx * self.p, axis=-1))
        # Lazily-built shared scratch for the row kernel (see
        # rounded_bucket_terms_row): the full-size Toeplitz index matrix
        # and its invalid-triangle mask, identical for every row start.
        self._toeplitz = None

    def _toeplitz_indices(self):
        if self._toeplitz is None:
            offsets = np.arange(self.n)
            gather = offsets[:, None] - offsets[None, :]  # = L - m per cell
            invalid = gather < 0
            np.maximum(gather, 0, out=gather)
            self._toeplitz = (gather, invalid)
        return self._toeplitz

    # ------------------------------------------------------------------
    # Elementary range sums
    # ------------------------------------------------------------------
    def range_sum(self, low: int, high: int) -> float:
        """Exact ``sum(data[low..high])`` (inclusive)."""
        return float(self.p[high + 1] - self.p[low])

    def total(self) -> float:
        """Sum of the whole array, ``s[1, n]`` in the paper's notation."""
        return float(self.p[self.n])

    def bucket_mean(self, a: int, b):
        """Average value inside bucket ``[a, b]`` (``b`` may be an array)."""
        b = np.asarray(b)
        return (self.p[..., b + 1] - self.p[..., a]) / (b - a + 1)

    # ------------------------------------------------------------------
    # Internal raw moments of suffix / prefix sums
    # ------------------------------------------------------------------
    def _sum_p(self, lo, hi):
        """``sum_{t=lo..hi} p[t]`` (inclusive in t)."""
        return self._cum_p[..., np.asarray(hi) + 1] - self._cum_p[..., lo]

    def _sum_p2(self, lo, hi):
        return self._cum_p2[..., np.asarray(hi) + 1] - self._cum_p2[..., lo]

    def _sum_tp(self, lo, hi):
        return self._cum_tp[..., np.asarray(hi) + 1] - self._cum_tp[..., lo]

    def suffix_raw_moments(self, a: int, b):
        """Return ``(Y1, Y2, MY)`` for suffix sums ``y_l = s(l, b)``.

        ``Y1 = sum y_l``, ``Y2 = sum y_l^2``, ``MY = sum m_l * y_l`` with
        ``m_l = b - l + 1`` the piece length, over ``l = a..b``.
        """
        b = np.asarray(b)
        L = b - a + 1
        pb = self.p[..., b + 1]
        sp = self._sum_p(a, b)
        sp2 = self._sum_p2(a, b)
        stp = self._sum_tp(a, b)
        y1 = L * pb - sp
        y2 = L * pb * pb - 2.0 * pb * sp + sp2
        t1 = L * (L + 1) / 2.0
        my = pb * t1 - ((b + 1) * sp - stp)
        return y1, y2, my

    def prefix_raw_moments(self, a: int, b):
        """Return ``(Z1, Z2, MZ)`` for prefix sums ``z_r = s(a, r)``.

        ``MZ = sum m_r * z_r`` with ``m_r = r - a + 1``, over ``r = a..b``.
        """
        b = np.asarray(b)
        L = b - a + 1
        pa = self.p[..., a]
        sp = self._sum_p(a + 1, b + 1)
        sp2 = self._sum_p2(a + 1, b + 1)
        stp = self._sum_tp(a + 1, b + 1)
        z1 = sp - L * pa
        z2 = sp2 - 2.0 * pa * sp + L * pa * pa
        t1 = L * (L + 1) / 2.0
        mz = (stp - a * sp) - pa * t1
        return z1, z2, mz

    @staticmethod
    def _length_moments(L):
        """``(sum_{m=1..L} m, sum_{m=1..L} m^2)``."""
        t1 = L * (L + 1) / 2.0
        t2 = L * (L + 1) * (2 * L + 1) / 6.0
        return t1, t2

    # ------------------------------------------------------------------
    # Errors about the bucket average (OPT-A / A0 style, un-rounded)
    # ------------------------------------------------------------------
    def suffix_error_moments(self, a: int, b):
        """``(S1, S2)``: sum and sum of squares of un-rounded suffix errors."""
        b = np.asarray(b)
        L = b - a + 1
        mean = self.bucket_mean(a, b)
        y1, y2, my = self.suffix_raw_moments(a, b)
        t1, t2 = self._length_moments(L)
        s1 = y1 - mean * t1
        s2 = np.maximum(y2 - 2.0 * mean * my + mean * mean * t2, 0.0)
        return s1, s2

    def prefix_error_moments(self, a: int, b):
        """``(P1, P2)``: sum and sum of squares of un-rounded prefix errors."""
        b = np.asarray(b)
        L = b - a + 1
        mean = self.bucket_mean(a, b)
        z1, z2, mz = self.prefix_raw_moments(a, b)
        t1, t2 = self._length_moments(L)
        p1 = z1 - mean * t1
        p2 = np.maximum(z2 - 2.0 * mean * mz + mean * mean * t2, 0.0)
        return p1, p2

    def intra_sse(self, a: int, b):
        """Exact SSE of the average estimator over all sub-ranges of ``[a,b]``.

        Uses the pair identity on the centred prefix values ``v_t`` (see
        module docstring); O(1) per bucket, vectorised over ``b``.
        """
        b = np.asarray(b)
        L = b - a + 1
        mean = self.bucket_mean(a, b)
        pa = self.p[..., a]
        m = L + 1
        spv = self._sum_p(a, b + 1)
        sp2v = self._sum_p2(a, b + 1)
        stpv = self._sum_tp(a, b + 1)
        t1, t2 = self._length_moments(L)
        sum_v = spv - m * pa - mean * t1
        centred2 = sp2v - 2.0 * pa * spv + m * pa * pa
        cross = (stpv - a * spv) - pa * t1
        sum_v2 = centred2 - 2.0 * mean * cross + mean * mean * t2
        return np.maximum(m * sum_v2 - sum_v * sum_v, 0.0)

    # ------------------------------------------------------------------
    # SAP0 statistics
    # ------------------------------------------------------------------
    def sap0_suffix(self, a: int, b):
        """``(suff_value, var)``: mean suffix sum and its total squared deviation.

        ``suff_value`` is the optimal SAP0 suffix summary (Lemma 5.2) and
        ``var = sum_l (y_l - suff_value)^2`` the per-occurrence error mass.
        """
        b = np.asarray(b)
        L = b - a + 1
        y1, y2, _ = self.suffix_raw_moments(a, b)
        return y1 / L, np.maximum(y2 - y1 * y1 / L, 0.0)

    def sap0_prefix(self, a: int, b):
        """``(pref_value, var)`` analogous to :meth:`sap0_suffix`."""
        b = np.asarray(b)
        L = b - a + 1
        z1, z2, _ = self.prefix_raw_moments(a, b)
        return z1 / L, np.maximum(z2 - z1 * z1 / L, 0.0)

    # ------------------------------------------------------------------
    # SAP1 statistics (linear fits against piece length)
    # ------------------------------------------------------------------
    def _ssr(self, L, w1, w2, mw):
        """Residual sum of squares of the best linear fit, vectorised."""
        t1, t2 = self._length_moments(L)
        syy = np.maximum(w2 - w1 * w1 / L, 0.0)
        sxx = t2 - t1 * t1 / L
        sxy = mw - t1 * w1 / L
        safe_sxx = np.where(L > 1, sxx, 1.0)
        return np.where(L > 1, np.maximum(syy - sxy * sxy / safe_sxx, 0.0), 0.0)

    def sap1_suffix_ssr(self, a: int, b):
        """Residual SSE of the best linear suffix fit (vectorised over ``b``)."""
        b = np.asarray(b)
        y1, y2, my = self.suffix_raw_moments(a, b)
        return self._ssr(b - a + 1, y1, y2, my)

    def sap1_prefix_ssr(self, a: int, b):
        """Residual SSE of the best linear prefix fit (vectorised over ``b``)."""
        b = np.asarray(b)
        z1, z2, mz = self.prefix_raw_moments(a, b)
        return self._ssr(b - a + 1, z1, z2, mz)

    def _fit(self, L: int, w1: float, w2: float, mw: float) -> SuffixPrefixFit:
        if L == 1:
            # A single point is fit exactly; represent as slope 0 through it.
            return SuffixPrefixFit(slope=0.0, intercept=float(w1), ssr=0.0)
        t1, t2 = self._length_moments(L)
        syy = max(w2 - w1 * w1 / L, 0.0)
        sxx = t2 - t1 * t1 / L
        sxy = mw - t1 * w1 / L
        slope = sxy / sxx
        intercept = (w1 - slope * t1) / L
        return SuffixPrefixFit(
            slope=float(slope),
            intercept=float(intercept),
            ssr=float(max(syy - sxy * sxy / sxx, 0.0)),
        )

    def sap1_suffix_fit(self, a: int, b: int) -> SuffixPrefixFit:
        """Best linear fit of suffix sums ``s(l, b)`` against length ``b-l+1``."""
        y1, y2, my = self.suffix_raw_moments(a, int(b))
        return self._fit(int(b) - a + 1, float(y1), float(y2), float(my))

    def sap1_prefix_fit(self, a: int, b: int) -> SuffixPrefixFit:
        """Best linear fit of prefix sums ``s(a, r)`` against length ``r-a+1``."""
        z1, z2, mz = self.prefix_raw_moments(a, int(b))
        return self._fit(int(b) - a + 1, float(z1), float(z2), float(mz))

    # ------------------------------------------------------------------
    # Rounded (integer-answer) statistics for the OPT-A dynamic program
    # ------------------------------------------------------------------
    def rounded_bucket_terms_row(
        self, a: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Rounded OPT-A statistics of every bucket ``[a, b]``, ``b = a..n-1``.

        This is the hot build kernel behind the OPT-A precompute: one
        call evaluates the whole row of candidate buckets with a
        constant number of numpy passes over ``(n-a)``-sized (and one
        family of ``(n-a)^2``-sized) arrays, instead of ``n - a``
        separate O(L) evaluations through the Python interpreter.

        Returns ``(S1, S2, P1, P2, intra)``, each an array of length
        ``n - a`` indexed by ``b - a``: the sums and sums of squares of
        the rounded suffix errors ``s(l, b) - round((b-l+1) * mean)``
        and prefix errors ``s(a, r) - round((r-a+1) * mean)``, and the
        intra-bucket SSE with every sub-range answer rounded.  On
        integral data all five are exact integers (see the module
        docstring).

        Derivation sketch: with ``q_t = s(a, a+t-1)`` (``q_0 = 0``) and
        ``r_{b,m} = round(m * mean_b)``, the suffix error of the length-
        ``m`` piece of ``[a, b]`` is ``(S_b - q_{L-m}) - r_{b,m}`` and
        the prefix error is ``q_m - r_{b,m}``, so every first and second
        moment expands into prefix sums of ``q``/``q^2`` (O(1) per
        bucket) plus reductions of the rounding matrix ``r`` against
        ``q`` — the only genuinely two-dimensional objects.  Every
        sub-range sum is a difference ``q_j - q_i`` whose rounded
        estimate depends only on the gap ``m = j - i``, so the intra
        term splits into the all-pairs identity plus gap-grouped
        rounding terms (DESIGN.md section 4):

            sum_{i<j} (q_j - q_i)^2
            - 2 * sum_m r_m * g_m  +  sum_m (L+1-m) * r_m^2

        with ``g_m`` the sum of ``q_j - q_i`` over pairs at gap ``m``.
        """
        n = self.n
        nb = n - a
        # q[t] = s(a, a+t-1), t = 0..nb; integers on integral data.
        q = self.p[a : n + 1] - self.p[a]
        lengths = np.arange(1, nb + 1, dtype=np.float64)  # L for b = a..n-1
        totals = q[1:]  # S_b
        mean = totals / lengths  # elementwise == bucket_mean(a, b)
        cum_q = np.concatenate(([0.0], np.cumsum(q)))  # cum_q[i] = sum_{t<i} q_t
        cum_q2 = np.concatenate(([0.0], np.cumsum(q * q)))

        # Rounding matrix R[b-a, m-1] = round_half_up(m * mean_b), zeroed
        # outside the valid triangle m <= L.  The Toeplitz index matrix
        # (i - j, clamped at 0) and its invalid-triangle mask are shared
        # by every row start: build them once at full size and slice.
        gather, invalid = self._toeplitz_indices()
        gather = gather[:nb, :nb]
        invalid = invalid[:nb, :nb]
        rounded = lengths[None, :] * mean[:, None]
        rounded += 0.5
        np.floor(rounded, out=rounded)
        rounded[invalid] = 0.0
        rounded2 = rounded * rounded

        piece_q = q[gather]  # q_{L-m} per cell (clamped; masked via R = 0)
        piece_cum = cum_q[1:][gather]  # cum_q[L-m+1] per cell

        sum_r = rounded.sum(axis=1)  # sum_m r_m
        sum_r2 = rounded2.sum(axis=1)
        cross_suffix = np.einsum("ij,ij->i", piece_q, rounded)  # sum_m q_{L-m} r_m
        cross_prefix = rounded @ q[1:]  # sum_m q_m r_m
        sum_m_r2 = rounded2 @ lengths  # sum_m m r_m^2

        cq_L = cum_q[1 : nb + 1]  # sum_{t<L} q_t
        cq_L1 = cum_q[2 : nb + 2]  # sum_{t<=L} q_t
        cq2_L = cum_q2[1 : nb + 1]
        cq2_L1 = cum_q2[2 : nb + 2]

        s1 = (lengths * totals - cq_L) - sum_r
        s2 = (
            (lengths * totals * totals - 2.0 * totals * cq_L + cq2_L)
            - 2.0 * (totals * sum_r - cross_suffix)
            + sum_r2
        )
        p1 = cq_L1 - sum_r
        p2 = cq2_L1 - 2.0 * cross_prefix + sum_r2

        pairs_all = (lengths + 1.0) * cq2_L1 - cq_L1 * cq_L1
        # g[b, m] = sum over pairs at gap m of (q_{t+m} - q_t)
        #         = cq_L1[b] - cum_q[m] - cum_q[L-m+1], so the reduction
        # sum_m r_m g_m splits into three 1-D/matvec terms (no gap
        # matrix is materialised; every summand is an exact integer on
        # integral data, so the split keeps bit-identity).
        cross_intra = (
            cq_L1 * sum_r
            - rounded @ cum_q[1 : nb + 1]
            - np.einsum("ij,ij->i", rounded, piece_cum)
        )
        count_term = (lengths + 1.0) * sum_r2 - sum_m_r2
        intra = pairs_all - 2.0 * cross_intra + count_term
        return s1, s2, p1, p2, np.maximum(intra, 0.0)


class WeightedPointCost:
    """O(1) weighted point-variance bucket costs for V-optimal histograms.

    The cost of a bucket ``[a, b]`` is ``sum_i w_i * (A_i - mu_w)^2``
    where ``mu_w`` is the *weighted* bucket mean — the value that
    minimises the weighted point-query SSE.  Used by POINT-OPT with
    weights proportional to the probability that index ``i`` is covered
    by a uniformly random range, ``w_i ∝ (i + 1) * (n - i)``.
    """

    def __init__(self, data, weights=None) -> None:
        self.data = as_frequency_vector(data)
        self.n = int(self.data.size)
        if weights is None:
            weights = np.ones(self.n, dtype=np.float64)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != self.data.shape:
                raise ValueError("weights must have the same shape as data")
        self.weights = weights
        self._cw = np.concatenate(([0.0], np.cumsum(weights)))
        self._cwa = np.concatenate(([0.0], np.cumsum(weights * self.data)))
        self._cwa2 = np.concatenate(([0.0], np.cumsum(weights * self.data * self.data)))
        self._ca = np.concatenate(([0.0], np.cumsum(self.data)))

    def bucket_value(self, a: int, b):
        """Weighted mean of the bucket — the optimal stored value.

        Falls back to the plain mean where the bucket's weight is zero
        (any value is then optimal for the weighted objective).
        """
        b = np.asarray(b)
        w = self._cw[b + 1] - self._cw[a]
        wa = self._cwa[b + 1] - self._cwa[a]
        plain = self.bucket_plain_mean(a, b)
        safe_w = np.where(w > 0.0, w, 1.0)
        return np.where(w > 0.0, wa / safe_w, plain)

    def bucket_plain_mean(self, a: int, b):
        """Unweighted bucket mean (used as the zero-weight fallback)."""
        b = np.asarray(b)
        return (self._ca[b + 1] - self._ca[a]) / (b - a + 1)

    def bucket_cost(self, a: int, b):
        """Minimum weighted point SSE of bucket ``[a, b]``."""
        b = np.asarray(b)
        w = self._cw[b + 1] - self._cw[a]
        wa = self._cwa[b + 1] - self._cwa[a]
        wa2 = self._cwa2[b + 1] - self._cwa2[a]
        safe_w = np.where(w > 0.0, w, 1.0)
        return np.where(w > 0.0, np.maximum(wa2 - wa * wa / safe_w, 0.0), 0.0)
