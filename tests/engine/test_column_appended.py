"""Column statistics updated from appended rows equal a full rescan.

``ColumnStatistics.with_appended`` adds only the appended tail to a
column's counts; a refresh uses it instead of rescanning the whole
column.  Its result must be exactly ``from_values`` on the whole column,
and every case it cannot match exactly must return ``None`` so the
caller rescans.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ApproximateQueryEngine, Table, load_catalog, save_catalog
from repro.engine.column import ColumnStatistics
from repro.errors import InvalidDataError


def assert_same_statistics(actual: ColumnStatistics, expected: ColumnStatistics) -> None:
    assert actual.layout == expected.layout
    assert actual.lo == expected.lo and actual.hi == expected.hi
    assert actual.row_count == expected.row_count
    for field in ("values_axis", "count_frequencies", "sum_frequencies"):
        np.testing.assert_array_equal(getattr(actual, field), getattr(expected, field))
        assert getattr(actual, field).dtype == getattr(expected, field).dtype


def check_tail(prefix, tail) -> ColumnStatistics | None:
    """``with_appended`` is either ``None`` or exactly the full rescan."""
    prefix = np.asarray(prefix, dtype=np.float64)
    tail = np.asarray(tail, dtype=np.float64)
    updated = ColumnStatistics.from_values(prefix).with_appended(tail)
    if updated is not None:
        assert_same_statistics(
            updated, ColumnStatistics.from_values(np.concatenate((prefix, tail)))
        )
    return updated


DENSE = np.array([3, 7, 7, 10, 3, 5], dtype=np.float64)
RANK = np.array([0.5, 2.25, 2.25, 9.75, 1e9], dtype=np.float64)


class TestExactUpdates:
    def test_dense_tail_inside_the_domain(self):
        assert check_tail(DENSE, [4, 10, 3, 3]) is not None

    def test_dense_tail_near_integers(self):
        # from_values treats near-integers as integral and rounds them.
        assert check_tail(DENSE, [4.0000000001, 9.9999999999]) is not None

    def test_rank_tail_on_existing_values(self):
        assert check_tail(RANK, [2.25, 1e9, 0.5]) is not None

    def test_empty_tail_is_unchanged(self):
        stats = ColumnStatistics.from_values(DENSE)
        assert stats.with_appended(np.array([])) is stats


class TestRescanCases:
    def test_non_finite_tail(self):
        assert check_tail(DENSE, [4, np.nan]) is None
        assert check_tail(DENSE, [np.inf]) is None
        with pytest.raises(InvalidDataError, match="NaN or infinite"):
            ColumnStatistics.from_values(np.concatenate((DENSE, [np.nan])))

    def test_non_integral_tail_on_dense_layout(self):
        assert check_tail(DENSE, [4.5]) is None

    def test_tail_outside_the_axis(self):
        assert check_tail(DENSE, [11]) is None
        assert check_tail(DENSE, [2]) is None
        assert check_tail(RANK, [2e9]) is None

    def test_new_distinct_value_on_rank_layout(self):
        assert check_tail(RANK, [2.5]) is None

    def test_negative_zero(self):
        assert check_tail(np.array([0.0, 4.0]), [-0.0]) is None


@settings(max_examples=200, deadline=None)
@given(
    prefix=st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=40),
    tail=st.lists(
        st.one_of(
            st.integers(min_value=-25, max_value=25).map(float),
            st.sampled_from([0.5, 2.25, -0.0, np.nan, np.inf, 1e-12, 3.0000000001]),
        ),
        max_size=12,
    ),
    as_rank=st.booleans(),
)
def test_property_equals_full_rescan(prefix, tail, as_rank):
    prefix = np.asarray(prefix, dtype=np.float64)
    if as_rank:
        prefix = prefix + 0.25  # non-integral: rank layout
    if np.all(np.isfinite(tail)) and not as_rank:
        # Half the time, keep the tail inside the prefix's span.
        tail = np.clip(tail, prefix.min(), prefix.max())
    check_tail(prefix, tail)


def _sharded_engine(values) -> ApproximateQueryEngine:
    engine = ApproximateQueryEngine()
    engine.register_table(Table("t", {"v": values}))
    engine.build_synopsis("t", "v", method="sap1", budget_words=256, shards=8)
    return engine


def test_refresh_matches_a_full_rescan_over_many_appends():
    rng = np.random.default_rng(8)
    values = rng.integers(0, 64, 3000)
    values[0], values[1] = 0, 63
    engine = _sharded_engine(values)
    for cycle in range(30):
        engine.append_rows("t", {"v": rng.integers(0, 64, 50)})
        engine.refresh_stale()
        assert_same_statistics(
            engine._synopses[("t", "v")].statistics,
            ColumnStatistics.from_values(engine.table("t").column("v")),
        )


def test_loaded_catalog_rescans_on_first_refresh(tmp_path, monkeypatch):
    rng = np.random.default_rng(9)
    values = rng.integers(0, 64, 3000)
    values[0], values[1] = 0, 63
    engine = _sharded_engine(values)
    path = tmp_path / "catalog.json"
    save_catalog(engine, path)
    restored = ApproximateQueryEngine()
    restored.register_table(Table("t", {"v": values}))
    load_catalog(restored, path)
    assert not restored._synopses[("t", "v")].stats_from_table

    scans = []
    original = ColumnStatistics.from_values.__func__

    def counting(cls, column, *args, **kwargs):
        scans.append(len(column))
        return original(cls, column, *args, **kwargs)

    monkeypatch.setattr(ColumnStatistics, "from_values", classmethod(counting))
    restored.append_rows("t", {"v": np.array([5, 6, 40])})
    assert restored.refresh_stale() == 1
    assert scans == [3003]
    assert_same_statistics(
        restored._synopses[("t", "v")].statistics,
        original(ColumnStatistics, restored.table("t").column("v")),
    )
    # The refreshed entry now summarises this table, so the next refresh
    # adds only its tail.
    restored.append_rows("t", {"v": np.array([7])})
    assert restored.refresh_stale() == 1
    assert scans == [3003]
