"""Slow, independent oracles for the differential suites.

Each module here is a scalar reference for one vectorised production
kernel.  An oracle never calls the kernel it checks: it recomputes the
same quantity one bucket, one prefix or one tree block at a time, so a
fault in the kernel cannot cancel out of the comparison.

* :mod:`tests.reference.dp` — per-shard, per-prefix fill of one interval
  DP layer, checking :func:`repro.internal.dp._fill_layer`;
* :mod:`tests.reference.prefix` — per-bucket rounded OPT-A statistics,
  checking :meth:`repro.internal.prefix.PrefixAlgebra.rounded_bucket_terms_row`;
* :mod:`tests.reference.opt_a` — per-bucket OPT-A term precompute,
  checking :func:`repro.core.opt_a._precompute_terms`;
* :mod:`tests.reference.shard_tree` — interior sums over the canonical
  dyadic block cover, checking
  :meth:`repro.engine.shard_tree.DyadicShardTree.range_sum_many`.

The differential suites swap the module-level seams ``dp._fill_layer``
and ``opt_a._precompute_terms`` for these oracles with a monkeypatch.
"""
