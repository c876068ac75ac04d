"""SAPd: higher-order polynomial suffix/prefix summaries (degree >= 2).

Section 2.2.2 generalises SAP0's constants to SAP1's linear functions
and notes the technique keeps working; this module continues the ladder
to arbitrary (small) polynomial degree ``d``: each bucket stores the
degree-``d`` least-squares fits of its suffix sums and prefix sums
against the piece length.

The Decomposition Lemma survives verbatim: OLS residuals are orthogonal
to every regressor, in particular the constant, so the per-bucket
residual sums are zero and the cross terms of the SSE vanish — the
interval DP with additive costs

    cost(a, b) = intra(a, b) + (n-1-b) * SSR_suf(a, b) + a * SSR_pre(a, b)

is exactly optimal over boundaries and summaries simultaneously, in
``O(n^2 B)`` (for fixed ``d``).

Storage: boundaries + two (d+1)-coefficient fits per bucket =
``(2d + 3) * B`` words (the average is recoverable from the fits as in
SAP0/SAP1) — degree 1 reproduces SAP1's 5B.

Numerics: fits use the *centred* length basis ``x = m - (L+1)/2``,
which decorrelates the powers (odd moments vanish) and keeps the normal
equations well-conditioned up to degree 3 for the domain sizes this
library targets; the centre is derivable from the boundaries, so it
costs no storage.
"""

from __future__ import annotations

from math import comb

import numpy as np

from repro.errors import InvalidParameterError
from repro.internal.dp import interval_dp
from repro.internal.prefix import PrefixAlgebra
from repro.internal.validation import as_frequency_vector, check_bucket_count
from repro.queries.estimators import RangeSumEstimator

#: Highest supported fit degree (conditioning-bounded).
MAX_DEGREE = 3


class _PolyMoments:
    """Vectorised raw and centred moments of suffix/prefix sums.

    For a fixed bucket start ``a`` and all ends ``b``, provides
    ``R_j = sum_l m_l^j * y_l`` (suffix sums against piece length) and
    the analogous prefix moments, plus centred power sums of the
    lengths — everything the degree-``d`` normal equations need, O(1)
    per bucket after O(n * d) preprocessing.
    """

    def __init__(self, data: np.ndarray, degree: int) -> None:
        self.n = n = data.size
        self.degree = degree
        self.p = np.concatenate(([0.0], np.cumsum(data)))
        t = np.arange(n + 1, dtype=np.float64)
        # cum_tj_p[j][i] = sum_{u <= i} u^j * p[u]; cum_tj[j][i] = sum u^j.
        self.cum_tj_p = [
            np.concatenate(([0.0], np.cumsum(t**j * self.p))) for j in range(degree + 1)
        ]
        self.cum_tj = [
            np.concatenate(([0.0], np.cumsum(t**j))) for j in range(degree + 1)
        ]
        # Faulhaber sums P_j(L) = sum_{m=1..L} m^j, for j up to 2d.
        # (index 0 counts terms, so it must exclude m = 0: 0^0 == 1.)
        m = np.arange(n + 1, dtype=np.float64)
        self.power_sums = [np.arange(n + 1, dtype=np.float64)] + [
            np.cumsum(m**j) for j in range(1, 2 * degree + 1)
        ]
        # sum of squared suffix/prefix sums handled via PrefixAlgebra.
        self.algebra = PrefixAlgebra(data)

    def _sum_range(self, table, lo, hi):
        """sum_{u=lo..hi} of a cumulative-with-leading-zero table."""
        return table[np.asarray(hi) + 1] - table[lo]

    def suffix_raw(self, a: int, bs: np.ndarray):
        """``R_j = sum_{l=a..b} (b+1-l)^j * s(l, b)`` for j = 0..d."""
        d = self.degree
        pb = self.p[bs + 1]
        # A_i = sum_{l=a..b} l^i, B_i = sum_{l=a..b} l^i p[l].
        A = [self._sum_range(self.cum_tj[i], a, bs) for i in range(d + 1)]
        B = [self._sum_range(self.cum_tj_p[i], a, bs) for i in range(d + 1)]
        out = []
        for j in range(d + 1):
            total = np.zeros_like(pb)
            for i in range(j + 1):
                coeff = comb(j, i) * (-1.0) ** i
                total += coeff * (bs + 1.0) ** (j - i) * (pb * A[i] - B[i])
            out.append(total)
        return out

    def prefix_raw(self, a: int, bs: np.ndarray):
        """``R_j = sum_{r=a..b} (r-a+1)^j * s(a, r)`` for j = 0..d."""
        d = self.degree
        pa = self.p[a]
        # C_i = sum_{r=a..b} (r+1)^i ... expand via u = r+1 in a+1..b+1.
        A = [self._sum_range(self.cum_tj[i], a + 1, bs + 1) for i in range(d + 1)]
        B = [self._sum_range(self.cum_tj_p[i], a + 1, bs + 1) for i in range(d + 1)]
        out = []
        for j in range(d + 1):
            total = np.zeros(bs.shape, dtype=np.float64)
            for i in range(j + 1):
                # (r - a + 1)^j = (u - a)^j with u = r + 1.
                coeff = comb(j, i) * (-float(a)) ** (j - i)
                total += coeff * (B[i] - pa * A[i])
            out.append(total)
        return out

    def centred_power_sums(self, lengths: np.ndarray):
        """``S_k(L) = sum_{m=1..L} (m - (L+1)/2)^k`` for k = 0..2d."""
        centres = (lengths + 1.0) / 2.0
        L_idx = lengths.astype(np.int64)
        out = []
        for k in range(2 * self.degree + 1):
            total = np.zeros(lengths.shape, dtype=np.float64)
            for j in range(k + 1):
                total += (
                    comb(k, j)
                    * (-centres) ** (k - j)
                    * self.power_sums[j][L_idx]
                )
            out.append(total)
        return out

    @staticmethod
    def centre_moments(raw, lengths):
        """Convert raw length moments ``R_j`` to centred ``r_k``."""
        centres = (lengths + 1.0) / 2.0
        out = []
        for k in range(len(raw)):
            total = np.zeros(lengths.shape, dtype=np.float64)
            for j in range(k + 1):
                total += comb(k, j) * (-centres) ** (k - j) * raw[j]
            out.append(total)
        return out


def _ssr_rows(moments: _PolyMoments, a: int, side: str):
    """Residual SSE of the degree-d centred fit, for all ``b >= a``."""
    n, d = moments.n, moments.degree
    bs = np.arange(a, n)
    lengths = (bs - a + 1).astype(np.float64)
    raw = moments.suffix_raw(a, bs) if side == "suffix" else moments.prefix_raw(a, bs)
    r = moments.centre_moments(raw, lengths)
    s = moments.centred_power_sums(lengths)
    # Normal equations M c = r with M[i, j] = S_{i+j}.
    count = bs.size
    M = np.empty((count, d + 1, d + 1))
    for i in range(d + 1):
        for j in range(d + 1):
            M[:, i, j] = s[i + j]
    rhs = np.stack(r, axis=1)
    # Ridge-of-last-resort for degenerate tiny buckets (L <= d).
    eye = np.eye(d + 1) * 1e-9
    coeffs = np.linalg.solve(M + eye, rhs[..., None])[..., 0]
    if side == "suffix":
        _, y2, _ = moments.algebra.suffix_raw_moments(a, bs)
    else:
        _, y2, _ = moments.algebra.prefix_raw_moments(a, bs)
    ssr = np.asarray(y2) - np.einsum("bk,bk->b", coeffs, rhs)
    return np.maximum(ssr, 0.0), coeffs


class PolySapHistogram(RangeSumEstimator):
    """Histogram with degree-``d`` polynomial suffix/prefix summaries.

    The suffix estimate for a piece of length ``m`` inside bucket ``P``
    is ``sum_k suffix_coeffs[P, k] * (m - (L_P + 1)/2)^k``, and
    symmetrically for prefixes; intra-bucket queries answer with the
    bucket average (recoverable — not stored against the budget).
    """

    def __init__(self, lefts, averages, suffix_coeffs, prefix_coeffs, n: int,
                 degree: int) -> None:
        from repro.core.histogram import validate_lefts

        self.n = int(n)
        self.lefts = validate_lefts(lefts, self.n)
        self.bucket_count = int(self.lefts.size)
        self.rights = np.concatenate((self.lefts[1:] - 1, [self.n - 1]))
        self.bucket_lengths = self.rights - self.lefts + 1
        self.degree = int(degree)
        self.averages = np.asarray(averages, dtype=np.float64)
        self.suffix_coeffs = np.asarray(suffix_coeffs, dtype=np.float64)
        self.prefix_coeffs = np.asarray(prefix_coeffs, dtype=np.float64)
        expected = (self.bucket_count, self.degree + 1)
        if self.suffix_coeffs.shape != expected or self.prefix_coeffs.shape != expected:
            raise InvalidParameterError(
                f"coefficient arrays must have shape {expected}"
            )
        totals = self.bucket_lengths * self.averages
        self._cum_totals = np.concatenate(([0.0], np.cumsum(totals)))
        self._centres = (self.bucket_lengths + 1.0) / 2.0

    @property
    def name(self) -> str:
        return f"SAP{self.degree}"

    def storage_words(self) -> int:
        """``(2d + 3) B``: boundary + two (d+1)-coefficient fits."""
        return (2 * self.degree + 3) * self.bucket_count

    def bucket_of(self, index) -> np.ndarray:
        return np.searchsorted(self.lefts, np.asarray(index), side="right") - 1

    def bucket_ranges(self) -> list[tuple[int, int]]:
        return list(zip(self.lefts.tolist(), self.rights.tolist()))

    def _poly(self, coeffs: np.ndarray, buckets: np.ndarray, lengths: np.ndarray):
        x = lengths - self._centres[buckets]
        total = np.zeros(lengths.shape, dtype=np.float64)
        for k in range(self.degree + 1):
            total += coeffs[buckets, k] * x**k
        return total

    def estimate_many(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        lows = np.asarray(lows, dtype=np.int64)
        highs = np.asarray(highs, dtype=np.int64)
        bl = self.bucket_of(lows)
        br = self.bucket_of(highs)
        same = bl == br
        suffix_len = (self.rights[bl] - lows + 1).astype(np.float64)
        prefix_len = (highs - self.lefts[br] + 1).astype(np.float64)
        suffix = self._poly(self.suffix_coeffs, bl, suffix_len)
        prefix = self._poly(self.prefix_coeffs, br, prefix_len)
        middle = self._cum_totals[br] - self._cum_totals[bl + 1]
        intra = (highs - lows + 1) * self.averages[bl]
        return np.where(same, intra, suffix + middle + prefix)


def build_sap_poly(data, n_buckets: int, degree: int = 2) -> PolySapHistogram:
    """Range-optimal SAPd histogram for ``2 <= degree <= MAX_DEGREE``.

    (Degrees 0 and 1 are served by :func:`repro.core.sap.build_sap0` and
    :func:`~repro.core.sap.build_sap1`, which share the same objective.)
    """
    data = as_frequency_vector(data)
    n = data.size
    n_buckets = check_bucket_count(n_buckets, n)
    if not 2 <= degree <= MAX_DEGREE:
        raise InvalidParameterError(
            f"degree must be in [2, {MAX_DEGREE}], got {degree}"
        )
    moments = _PolyMoments(data, degree)

    def cost_row(a: int) -> np.ndarray:
        bs = np.arange(a, n)
        ssr_suffix, _ = _ssr_rows(moments, a, "suffix")
        ssr_prefix, _ = _ssr_rows(moments, a, "prefix")
        return (
            np.asarray(moments.algebra.intra_sse(a, bs))
            + (n - 1 - bs) * ssr_suffix
            + a * ssr_prefix
        )

    lefts, _ = interval_dp(n, n_buckets, cost_row)
    rights = np.concatenate((lefts[1:] - 1, [n - 1]))

    averages, suffix_rows, prefix_rows = [], [], []
    for a, b in zip(lefts.tolist(), rights.tolist()):
        averages.append(moments.algebra.bucket_mean(a, b))
        offset = b - a  # position of b within cost_row(a)'s arrays
        _, suffix_coeffs = _ssr_rows(moments, a, "suffix")
        _, prefix_coeffs = _ssr_rows(moments, a, "prefix")
        suffix_rows.append(suffix_coeffs[offset])
        prefix_rows.append(prefix_coeffs[offset])
    return PolySapHistogram(
        lefts, averages, suffix_rows, prefix_rows, n, degree=degree
    )
