"""Whole-catalog persistence.

A synopsis catalog is the thing an engine keeps *instead of* the data,
so it must survive restarts on its own: :func:`save_catalog` writes
every 1-D synopsis (and its column statistics) to a single compressed
``.npz`` container, and :func:`load_catalog` restores them into an
engine that need not have the base tables registered at all — estimates
keep working; only exact-answer comparisons require re-registering the
data.

Layout: a JSON manifest plus, per synopsis, the binary estimator blobs
(via :mod:`repro.engine.storage`) and the column-statistics arrays.
Sharded synopses (format version 2) additionally persist their shard
boundaries, per-shard estimator blobs, exact per-shard totals and
budgets, the frozen per-shard error predictions, and the engine's
dirty-shard flags — a loaded sharded entry with dirty shards is marked
stale, because the bytes genuinely predate the appended rows it knows
about.  Monolithic staleness remains a session property and is not
persisted.  Joint (2-D) synopses are rebuildable from data and are not
persisted; the manifest records the format version so layouts can keep
evolving (version-1 files still load).

Durability (format version 3): :func:`save_catalog` writes atomically —
the container is serialised to a temporary file in the target
directory, fsynced, and renamed over the destination, so a crash or
injected I/O failure mid-save never leaves a partial catalog where a
good one stood.  The manifest carries a CRC-32 per stored array;
:func:`load_catalog` verifies them and *quarantines* entries that fail
(checksum mismatch or undecodable blob): if the entry's column
statistics survive, a cheap single-bucket substitute synopsis is
installed and marked stale (``engine.quarantined_synopses()`` lists
them; ``refresh_stale`` rebuilds the real thing), otherwise the entry
is skipped.  A corrupted file never raises an unhandled numpy or zip
error — only :class:`~repro.errors.SerializationError` when the whole
container is unreadable.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
import zlib

import numpy as np

from repro.core.builders import ErrorPrediction, aggregate_shard_predictions
from repro.engine.column import ColumnStatistics
from repro.engine.engine import ApproximateQueryEngine, _ColumnSynopses
from repro.engine.shard_tree import DyadicShardTree
from repro.engine.sharding import ShardedSynopsis
from repro.engine.storage import deserialize_estimator, serialize_estimator
from repro.errors import InvalidParameterError, SerializationError
from repro.internal.faults import fault_point, transform_bytes

#: The layout :func:`save_catalog` writes; every older version still
#: loads (committed v2/v3 test fixtures pin that).
FORMAT_VERSION = 4
_SUPPORTED_VERSIONS = (1, 2, 3, 4)


def _blob(data: bytes) -> np.ndarray:
    return np.frombuffer(data, dtype=np.uint8)


def _crc(array: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(array).tobytes()) & 0xFFFFFFFF


def _prediction_to_json(prediction: ErrorPrediction | None):
    if prediction is None:
        return None
    return {
        "sse_per_query": prediction.sse_per_query,
        "query_count": prediction.query_count,
        "sampled_queries": prediction.sampled_queries,
        "exact": prediction.exact,
    }


def _prediction_from_json(payload) -> ErrorPrediction | None:
    if payload is None:
        return None
    return ErrorPrediction(
        sse_per_query=float(payload["sse_per_query"]),
        query_count=int(payload["query_count"]),
        sampled_queries=int(payload["sampled_queries"]),
        exact=bool(payload["exact"]),
    )


def _save_sharded(arrays: dict, prefix: str, sharded: ShardedSynopsis) -> dict:
    """Store one sharded estimator's arrays; returns its manifest row."""
    arrays[f"{prefix}_starts"] = sharded.starts
    arrays[f"{prefix}_totals"] = sharded.totals
    arrays[f"{prefix}_budgets"] = sharded.budgets
    for shard, estimator in enumerate(sharded.estimators):
        arrays[f"{prefix}_shard{shard}"] = _blob(serialize_estimator(estimator))
    predictions = sharded.shard_predictions
    row = {
        "method": sharded.method,
        "predictions": (
            None
            if predictions is None
            else [_prediction_to_json(p) for p in predictions]
        ),
        # Format v4: the dyadic tree's level arrays (each CRC-verified
        # like every other array), the interior-answering mode, and the
        # compaction lineage ride along so a restart resumes exactly the
        # geometry and history it saved — no tree rebuild, no forgotten
        # compaction generations.
        "interior": sharded.interior,
        "tree_levels": len(sharded.tree.levels),
        "tree_size": sharded.tree.size,
        "lineage": sharded.lineage,
    }
    for level, nodes in enumerate(sharded.tree.levels):
        arrays[f"{prefix}_tree_level{level}"] = nodes
    return row


def _load_sharded(archive, prefix: str, meta: dict) -> ShardedSynopsis:
    starts = archive[f"{prefix}_starts"]
    shard_count = int(starts.size - 1)
    estimators = [
        deserialize_estimator(bytes(archive[f"{prefix}_shard{shard}"]))
        for shard in range(shard_count)
    ]
    raw_predictions = meta.get("predictions")
    predictions = (
        None
        if raw_predictions is None
        else [_prediction_from_json(p) for p in raw_predictions]
    )
    tree = None
    if "tree_levels" in meta:
        try:
            tree = DyadicShardTree.from_levels(
                [
                    archive[f"{prefix}_tree_level{level}"]
                    for level in range(int(meta["tree_levels"]))
                ],
                int(meta["tree_size"]),
            )
        except InvalidParameterError as error:
            raise SerializationError(
                f"persisted shard tree {prefix!r} is malformed: {error}"
            ) from error
        if not tree.check_invariant():
            raise SerializationError(
                f"persisted shard tree {prefix!r} violates the "
                "node-equals-sum-of-children invariant"
            )
    # Pre-v4 catalogs carry no tree: ShardedSynopsis rebuilds it from
    # the persisted totals (it is derived state), defaulting to tree
    # answering so old catalogs get the O(log S) path on load.
    return ShardedSynopsis(
        starts,
        estimators,
        archive[f"{prefix}_totals"],
        archive[f"{prefix}_budgets"],
        meta["method"],
        shard_predictions=predictions,
        interior=meta.get("interior", "tree"),
        tree=tree,
        lineage=meta.get("lineage"),
    )


def serialize_catalog(engine: ApproximateQueryEngine) -> bytes:
    """Serialise every 1-D synopsis of ``engine`` to one ``.npz`` blob.

    This is the byte-level half of :func:`save_catalog`: the returned
    payload is exactly what :func:`save_catalog` writes to disk, and
    :func:`deserialize_catalog` restores it.  The multi-process serving
    tier (:mod:`repro.serving.shared_catalog`) publishes these blobs
    into shared memory so worker processes attach to one catalog copy
    without ever pickling the engine.

    Stale synopses are written as-is; sharded entries also record their
    dirty-shard flags (``"all"`` when the whole domain must rebuild),
    monolithic staleness is a session property and is dropped.  The
    layout is always :data:`FORMAT_VERSION` (v4), which also persists
    each sharded entry's dyadic shard tree, interior-answering mode, and
    compaction lineage; older layouts are read, never written.
    """
    manifest = {"version": FORMAT_VERSION, "synopses": []}
    arrays: dict[str, np.ndarray] = {}
    for index, ((table, column), entry) in enumerate(sorted(engine._synopses.items())):
        row = {
            "table": table,
            "column": column,
            "method": entry.method,
            "budget_words": entry.budget_words,
            "layout": entry.statistics.layout,
            "lo": entry.statistics.lo,
            "hi": entry.statistics.hi,
            "row_count": entry.statistics.row_count,
            "shards": entry.shards,
        }
        if isinstance(entry.count_estimator, ShardedSynopsis):
            row["count_sharded"] = _save_sharded(
                arrays, f"{index}_count", entry.count_estimator
            )
            row["sum_sharded"] = _save_sharded(
                arrays, f"{index}_sum", entry.sum_estimator
            )
            dirty = engine._dirty_shards.get((table, column))
            if (table, column) in engine._stale:
                row["dirty_shards"] = "all" if dirty is None else sorted(dirty)
        else:
            arrays[f"{index}_count_blob"] = _blob(
                serialize_estimator(entry.count_estimator)
            )
            arrays[f"{index}_sum_blob"] = _blob(
                serialize_estimator(entry.sum_estimator)
            )
        arrays[f"{index}_values_axis"] = entry.statistics.values_axis
        arrays[f"{index}_count_freq"] = entry.statistics.count_frequencies
        arrays[f"{index}_sum_freq"] = entry.statistics.sum_frequencies
        manifest["synopses"].append(row)
    manifest["checksums"] = {name: _crc(array) for name, array in arrays.items()}
    arrays["manifest"] = _blob(json.dumps(manifest).encode("utf-8"))
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    return buffer.getvalue()


def save_catalog(engine: ApproximateQueryEngine, path) -> int:
    """Write every 1-D synopsis of ``engine`` to ``path`` (.npz).

    Returns the number of synopses written.  The layout is produced by
    :func:`serialize_catalog` (see there for the format).

    The write is atomic (temp file + fsync + rename): concurrent
    readers and crash recovery only ever see the previous complete
    catalog or the new one, never a torn file.  Every stored array's
    CRC-32 goes into the manifest for load-time verification.
    """
    count = len(engine._synopses)
    payload = serialize_catalog(engine)
    payload = transform_bytes("persistence_write", payload, path=str(path))
    _atomic_write(path, payload)
    return count


def _atomic_write(path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` atomically (temp + fsync + rename).

    The temporary file lives in the destination directory so the final
    :func:`os.replace` stays on one filesystem (rename atomicity).  Any
    failure — including an injected ``persistence_write`` fault between
    the two half-writes below — removes the temp file and leaves the
    destination untouched.
    """
    target = os.fspath(path)
    directory = os.path.dirname(target) or "."
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(target) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            half = len(payload) // 2
            handle.write(payload[:half])
            # Mid-write chaos hook: proves a failure here cannot tear
            # the destination (the temp file is discarded below).
            fault_point("persistence_write", path=target)
            handle.write(payload[half:])
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, target)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


class _VerifyingArchive:
    """Array access with manifest-CRC verification folded in.

    Raises :class:`~repro.errors.SerializationError` both on a checksum
    mismatch and on any decode failure from the underlying container
    (bit-flipped zlib streams surface as zipfile/OSError/ValueError —
    all normalised here so callers handle exactly one exception type).
    """

    def __init__(self, archive, checksums: dict | None) -> None:
        self._archive = archive
        self._checksums = checksums or {}

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            array = self._archive[name]
        except SerializationError:
            raise
        except Exception as error:  # noqa: BLE001 — zip/zlib/npy decode zoo
            raise SerializationError(
                f"cannot decode catalog array {name!r}: {error}"
            ) from error
        expected = self._checksums.get(name)
        if expected is not None and _crc(array) != int(expected):
            raise SerializationError(f"checksum mismatch for catalog array {name!r}")
        return array


def _load_statistics(archive: _VerifyingArchive, index: int, meta: dict):
    return ColumnStatistics(
        lo=meta["lo"],
        hi=meta["hi"],
        values_axis=archive[f"{index}_values_axis"],
        count_frequencies=archive[f"{index}_count_freq"],
        sum_frequencies=archive[f"{index}_sum_freq"],
        row_count=int(meta["row_count"]),
        layout=meta["layout"],
    )


def _quarantine_substitute(
    archive: _VerifyingArchive, index: int, meta: dict
) -> _ColumnSynopses | None:
    """A single-bucket stand-in for a corrupt entry, if its statistics
    survived; ``None`` when even those are unreadable."""
    from repro.core.naive import build_naive

    try:
        statistics = _load_statistics(archive, index, meta)
        count_estimator = build_naive(statistics.count_frequencies)
        sum_estimator = build_naive(statistics.sum_frequencies)
    except Exception:  # noqa: BLE001 — stats corrupt too: skip the entry
        return None
    return _ColumnSynopses(
        statistics=statistics,
        count_estimator=count_estimator,
        sum_estimator=sum_estimator,
        method=meta["method"],
        budget_words=int(meta["budget_words"]),
        builder_kwargs={},
        predicted=None,
        shards=int(meta.get("shards", 1)),
    )


def load_catalog(engine: ApproximateQueryEngine, path) -> int:
    """Restore synopses written by :func:`save_catalog` into ``engine``.

    Existing synopses for the same (table, column) are replaced; tables
    themselves are untouched (and need not exist).  Sharded entries come
    back with their shard boundaries, frozen per-shard predictions, and
    dirty-shard flags — entries with dirty shards are marked stale.
    Returns the number of synopses restored (including quarantined
    substitutes).

    Version-3 catalogs verify every array against its manifest CRC-32.
    Entries that fail verification (or whose blobs no longer decode)
    are *quarantined*: a single-bucket substitute built from the
    entry's surviving column statistics is installed and marked stale
    so estimates keep flowing while ``refresh_stale`` rebuilds the real
    synopsis; entries whose statistics are also corrupt are skipped.
    An unreadable container (truncation, mangled manifest) raises
    :class:`~repro.errors.SerializationError` — never a raw numpy or
    zipfile exception.
    """
    fault_point("persistence_read", path=str(path))
    try:
        with open(path, "rb") as handle:
            payload = handle.read()
    except OSError as error:
        raise SerializationError(f"cannot read catalog {path}: {error}") from error
    payload = transform_bytes("persistence_read", payload, path=str(path))
    return deserialize_catalog(engine, payload, source=str(path))


def deserialize_catalog(
    engine: ApproximateQueryEngine, payload: bytes, *, source: str = "<bytes>"
) -> int:
    """Restore a :func:`serialize_catalog` blob into ``engine``.

    The byte-level half of :func:`load_catalog` (see there for the
    quarantine and verification semantics); ``source`` only labels
    error messages.  Shared-memory attach in the multi-process serving
    tier calls this directly on the published segment's bytes.
    """
    try:
        raw_archive = np.load(io.BytesIO(payload), allow_pickle=False)
    except Exception as error:  # noqa: BLE001 — truncated/mangled container
        raise SerializationError(
            f"{source} is not a readable catalog: {error}"
        ) from error
    with raw_archive as archive:
        try:
            manifest = json.loads(bytes(archive["manifest"]).decode("utf-8"))
        except KeyError as error:
            raise SerializationError(f"{source} is not a repro catalog") from error
        except Exception as error:  # noqa: BLE001 — corrupt manifest blob
            raise SerializationError(
                f"{source} has an unreadable manifest: {error}"
            ) from error
        if manifest.get("version") not in _SUPPORTED_VERSIONS:
            raise SerializationError(
                f"unsupported catalog version {manifest.get('version')!r}"
            )
        verifying = _VerifyingArchive(archive, manifest.get("checksums"))
        restored = 0
        for index, meta in enumerate(manifest["synopses"]):
            key = (meta["table"], meta["column"])
            try:
                entry = _load_entry(verifying, index, meta)
            except Exception:  # noqa: BLE001 — quarantine, never crash the load
                engine.metrics.counter(
                    "catalog_entries_quarantined_total"
                ).inc()
                substitute = _quarantine_substitute(verifying, index, meta)
                if substitute is None:
                    engine.metrics.counter("catalog_entries_skipped_total").inc()
                    continue
                engine._synopses[key] = substitute
                engine._stale.add(key)
                engine._dirty_shards.pop(key, None)
                engine._quarantined.add(key)
                restored += 1
                continue
            engine._synopses[key] = entry
            engine._stale.discard(key)
            engine._dirty_shards.pop(key, None)
            engine._quarantined.discard(key)
            dirty = meta.get("dirty_shards")
            if dirty is not None:
                engine._stale.add(key)
                engine._dirty_shards[key] = (
                    None if dirty == "all" else {int(shard) for shard in dirty}
                )
            restored += 1
    return restored


def _load_entry(
    archive: _VerifyingArchive, index: int, meta: dict
) -> _ColumnSynopses:
    """Decode and verify one catalog entry (raises on any damage)."""
    statistics = _load_statistics(archive, index, meta)
    predicted = None
    if "count_sharded" in meta:
        count_estimator = _load_sharded(archive, f"{index}_count", meta["count_sharded"])
        sum_estimator = _load_sharded(archive, f"{index}_sum", meta["sum_sharded"])
        sizes = np.diff(count_estimator.starts)
        count_prediction = aggregate_shard_predictions(
            count_estimator.shard_predictions, sizes
        )
        sum_prediction = aggregate_shard_predictions(
            sum_estimator.shard_predictions, sizes
        )
        if count_prediction is not None and sum_prediction is not None:
            predicted = {"count": count_prediction, "sum": sum_prediction}
    else:
        count_estimator = deserialize_estimator(bytes(archive[f"{index}_count_blob"]))
        sum_estimator = deserialize_estimator(bytes(archive[f"{index}_sum_blob"]))
    return _ColumnSynopses(
        statistics=statistics,
        count_estimator=count_estimator,
        sum_estimator=sum_estimator,
        method=meta["method"],
        budget_words=int(meta["budget_words"]),
        builder_kwargs={},
        predicted=predicted,
        shards=int(meta.get("shards", 1)),
    )
