"""Catalog format versions: v4 round trips, v2/v3 still load.

Format v4 adds the dyadic shard tree, the interior mode, and the
compaction lineage to each sharded entry.  These tests pin the
compatibility contract both ways:

* a v4 catalog round-trips tree + lineage bit-for-bit (no rebuild on
  load, invariant verified);
* catalogs in the v2 and v3 layouts (no tree arrays; v2 also without
  checksums) still load, with the tree rebuilt from the persisted
  totals — answers identical, lineage (a v4-only record) absent.  The
  writer emits v4 only, so the old layouts are committed fixtures,
  ``fixtures/catalog_v2.npz`` and ``fixtures/catalog_v3.npz``, written
  from :func:`_engine_with_lineage` by the last writer that had them;
* a damaged persisted tree quarantines the entry instead of serving
  wrong interiors.
"""

import json
import pathlib

import numpy as np
import pytest

from repro.engine import ApproximateQueryEngine, Table, load_catalog, save_catalog
from repro.engine.engine import AggregateQuery
from repro.engine.persistence import FORMAT_VERSION, _SUPPORTED_VERSIONS

KEY = ("events", "value")
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _engine_with_lineage() -> ApproximateQueryEngine:
    rng = np.random.default_rng(71)
    engine = ApproximateQueryEngine()
    engine.register_table(Table("events", {"value": rng.integers(0, 40, 500)}))
    engine.build_synopsis("events", "value", method="a0", budget_words=4096, shards=8)
    engine.compact_shards("events", "value", runs=[(0, 2)])
    return engine


def _queries():
    return [
        AggregateQuery("events", "value", aggregate, float(low), float(low + 11))
        for aggregate in ("count", "sum")
        for low in range(0, 28, 3)
    ]


def test_format_version_advanced_to_v4():
    assert FORMAT_VERSION == 4
    assert set(_SUPPORTED_VERSIONS) == {1, 2, 3, 4}


def test_v4_round_trips_tree_and_lineage(tmp_path):
    engine = _engine_with_lineage()
    saved = engine._synopses[KEY].count_estimator
    path = tmp_path / "catalog.npz"
    save_catalog(engine, path)

    restored = ApproximateQueryEngine()
    assert load_catalog(restored, path) == 1
    loaded = restored._synopses[KEY].count_estimator
    assert loaded.lineage == saved.lineage
    assert loaded.compaction_generation == 1
    assert loaded.interior == saved.interior == "tree"
    assert len(loaded.tree.levels) == len(saved.tree.levels)
    for mine, theirs in zip(loaded.tree.levels, saved.tree.levels):
        assert np.array_equal(mine, theirs)
    assert loaded.tree.check_invariant()
    for query in _queries():
        assert restored.execute(query).estimate == engine.execute(query).estimate


@pytest.mark.parametrize("version", [2, 3])
def test_legacy_layouts_still_load(version):
    engine = _engine_with_lineage()
    path = FIXTURES / f"catalog_v{version}.npz"

    # The file genuinely carries the old layout: no tree arrays, the
    # manifest says so, and v2 has no checksum table at all.
    with np.load(path, allow_pickle=False) as archive:
        manifest = json.loads(bytes(archive["manifest"]).decode("utf-8"))
        assert manifest["version"] == version
        assert not any("tree_level" in name for name in archive.files)
        assert "tree_levels" not in manifest["synopses"][0]["count_sharded"]
        assert ("checksums" in manifest) == (version >= 3)

    restored = ApproximateQueryEngine()
    assert load_catalog(restored, path) == 1
    assert restored.quarantined_synopses() == []
    loaded = restored._synopses[KEY].count_estimator
    # The tree is derived state: rebuilt from the persisted totals.
    assert loaded.tree.check_invariant()
    assert np.array_equal(loaded.tree.leaf_totals(), loaded.totals)
    assert loaded.interior == "tree"
    assert loaded.lineage == []  # lineage is a v4-only record
    for query in _queries():
        assert restored.execute(query).estimate == engine.execute(query).estimate


def _rewrite_npz(path, mutate_arrays):
    with np.load(path, allow_pickle=False) as archive:
        arrays = {name: archive[name].copy() for name in archive.files}
    mutate_arrays(arrays)
    import io

    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    path.write_bytes(buffer.getvalue())


def test_corrupted_tree_level_quarantines_the_entry(tmp_path):
    engine = _engine_with_lineage()
    path = tmp_path / "catalog.npz"
    save_catalog(engine, path)

    def _break_tree(arrays):
        level = arrays["0_count_tree_level1"]
        level[0] += 1.0  # now != sum of its children
        manifest = json.loads(bytes(arrays["manifest"]).decode("utf-8"))
        # Re-checksum so only the *invariant* check can catch it.
        import zlib

        manifest["checksums"]["0_count_tree_level1"] = (
            zlib.crc32(np.ascontiguousarray(level).tobytes()) & 0xFFFFFFFF
        )
        arrays["manifest"] = np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8
        )

    _rewrite_npz(path, _break_tree)
    restored = ApproximateQueryEngine()
    assert load_catalog(restored, path) == 1
    assert restored.quarantined_synopses() == [KEY]
    assert restored.stale_synopses() == [KEY]


def test_truncated_tree_arrays_quarantine_the_entry(tmp_path):
    engine = _engine_with_lineage()
    path = tmp_path / "catalog.npz"
    save_catalog(engine, path)

    def _drop_level(arrays):
        del arrays["0_count_tree_level2"]

    _rewrite_npz(path, _drop_level)
    restored = ApproximateQueryEngine()
    assert load_catalog(restored, path) == 1
    assert restored.quarantined_synopses() == [KEY]
