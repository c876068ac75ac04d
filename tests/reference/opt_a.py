"""Per-bucket reference for the OPT-A bucket-term precompute."""

import numpy as np

from repro.core.opt_a import _BucketTerms
from tests.reference.prefix import rounded_bucket_terms


def precompute_terms_scalar(algebra) -> _BucketTerms:
    """Same contract as :func:`repro.core.opt_a._precompute_terms`,
    filled one bucket at a time from :func:`rounded_bucket_terms`."""
    n = algebra.n
    s1, s2, p1, p2, intra = (np.zeros((n, n)) for _ in range(5))
    for a in range(n):
        for b in range(a, n):
            terms = rounded_bucket_terms(algebra, a, b)
            s1[a, b], s2[a, b], p1[a, b], p2[a, b], intra[a, b] = terms
    return _BucketTerms(s1=s1, s2=s2, p1=p1, p2=p2, intra=intra)
