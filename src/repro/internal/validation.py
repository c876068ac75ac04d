"""Argument checking shared across the library.

These helpers normalise user input once at the API boundary so that the
numeric kernels can assume well-formed ``float64`` arrays and in-bounds
indices.  They raise the library's typed errors (never bare
``ValueError``) so callers can catch :class:`repro.errors.ReproError`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidDataError, InvalidParameterError, InvalidQueryError


def as_frequency_vector(data, *, name: str = "data") -> np.ndarray:
    """Validate and convert ``data`` to a 1-D non-negative float64 array.

    The paper's model is an attribute-value distribution: ``data[v]`` is
    the number of records with attribute value ``v``.  Counts are
    conceptually non-negative integers, but we accept any finite
    non-negative reals so the library also works on pre-scaled data.
    """
    array = np.asarray(data, dtype=np.float64)
    if array.ndim != 1:
        raise InvalidDataError(f"{name} must be one-dimensional, got shape {array.shape}")
    if array.size == 0:
        raise InvalidDataError(f"{name} must be non-empty")
    if not np.all(np.isfinite(array)):
        raise InvalidDataError(f"{name} contains NaN or infinite entries")
    if np.any(array < 0):
        raise InvalidDataError(f"{name} contains negative entries; frequencies must be >= 0")
    return array


def as_frequency_rows(data, *, name: str = "data") -> np.ndarray:
    """Validate a ``[shards, n]`` stack of frequency vectors.

    Each row must pass :func:`as_frequency_vector`; the first failing
    row raises that function's error, so a stacked build rejects bad
    input exactly as building the rows one by one would.
    """
    array = np.asarray(data, dtype=np.float64)
    if array.ndim != 2:
        raise InvalidDataError(f"{name} must be a 2-D stack, got shape {array.shape}")
    if array.size == 0:
        raise InvalidDataError(f"{name} must be non-empty")
    bad = ~np.isfinite(array).all(axis=1) | (array < 0).any(axis=1)
    if np.any(bad):
        as_frequency_vector(array[int(np.argmax(bad))], name=name)
    return array


def check_bucket_count(n_buckets: int, n: int, *, name: str = "n_buckets") -> int:
    """Validate a bucket/coefficient count against the array length."""
    if not isinstance(n_buckets, (int, np.integer)):
        raise InvalidParameterError(f"{name} must be an integer, got {type(n_buckets).__name__}")
    n_buckets = int(n_buckets)
    if n_buckets < 1:
        raise InvalidParameterError(f"{name} must be >= 1, got {n_buckets}")
    if n_buckets > n:
        raise InvalidParameterError(f"{name} must be <= array length {n}, got {n_buckets}")
    return n_buckets


def as_build_stack(data, n_buckets) -> tuple[np.ndarray, np.ndarray, bool]:
    """Normalise a builder's input to ``(stack, caps, single)``.

    A 1-D ``data`` with an integer ``n_buckets`` becomes a one-row stack
    (``single`` True); a ``[shards, n]`` stack needs one bucket count
    per row.  Every row and count is checked as a one-vector build
    would check it.
    """
    array = np.asarray(data, dtype=np.float64)
    if array.ndim != 2:
        vector = as_frequency_vector(array)
        caps = np.asarray([check_bucket_count(n_buckets, vector.size)], dtype=np.int64)
        return vector[None, :], caps, True
    stack = as_frequency_rows(array)
    if np.ndim(n_buckets) != 1 or len(n_buckets) != stack.shape[0]:
        raise InvalidParameterError(
            f"a stack of {stack.shape[0]} rows needs one bucket count per row"
        )
    caps = [check_bucket_count(count, stack.shape[1]) for count in n_buckets]
    return stack, np.asarray(caps, dtype=np.int64), False


def check_range(low: int, high: int, n: int) -> tuple[int, int]:
    """Validate an inclusive, 0-indexed query range ``[low, high]``."""
    if not isinstance(low, (int, np.integer)) or not isinstance(high, (int, np.integer)):
        raise InvalidQueryError(f"range endpoints must be integers, got ({low!r}, {high!r})")
    low, high = int(low), int(high)
    if low > high:
        raise InvalidQueryError(f"range low must be <= high, got [{low}, {high}]")
    if low < 0 or high >= n:
        raise InvalidQueryError(f"range [{low}, {high}] out of bounds for length-{n} array")
    return low, high


def check_positive(value: float, *, name: str) -> float:
    """Validate a strictly positive scalar parameter."""
    value = float(value)
    if not np.isfinite(value) or value <= 0:
        raise InvalidParameterError(f"{name} must be a positive finite number, got {value}")
    return value
