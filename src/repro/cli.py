"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figure1``   regenerate the paper's Figure 1 sweep (synthetic or CSV data)
``compare``   compare every synopsis at one budget on a dataset
``estimate``  load a CSV table and answer an approximate SQL aggregate
``timing``    construction-time table across domain sizes

Datasets come either from a CSV column (``--csv file --column name``,
raw attribute values that get binned into a frequency vector) or from a
named generator (``--generate zipf --n 127 --seed 7``).
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from repro.core.builders import BUILDER_REGISTRY, build_by_name
from repro.data import (
    gaussian_mixture_frequencies,
    paper_dataset,
    uniform_frequencies,
    zipf_frequencies,
)
from repro.engine import ApproximateQueryEngine, Table
from repro.errors import BuildFailedError, BuildTimeoutError, ReproError

#: Distinct exit codes for the resilience failure modes, so callers can
#: tell a deadline expiry (retry with a cheaper method) from an
#: exhausted fallback ladder (investigate the builders).
EXIT_BUILD_TIMEOUT = 3
EXIT_BUILD_FAILED = 4
#: ``serve --workers N`` exits with this when the drain deadline passed
#: and surviving workers had to be force-killed — the shutdown was not
#: clean even though every submitted query was resolved one way or the
#: other.  A supervisor (systemd, k8s) keys restart policy off this.
EXIT_FORCED_SHUTDOWN = 5
from repro.experiments.figure1 import figure1_table, run_figure1
from repro.experiments.reporting import ascii_log_chart, format_table
from repro.experiments.runtimes import run_construction_timing
from repro.queries.evaluation import evaluate

GENERATORS = {
    "paper": lambda n, seed: paper_dataset(seed=seed) if seed is not None else paper_dataset(),
    "zipf": lambda n, seed: zipf_frequencies(n, alpha=1.8, seed=seed),
    "uniform": lambda n, seed: uniform_frequencies(n, seed=seed),
    "mixture": lambda n, seed: gaussian_mixture_frequencies(n, seed=seed),
}

#: Methods shown by ``compare`` (exact OPT-A included via the auto builder).
COMPARE_METHODS = (
    "naive",
    "equi-width",
    "equi-depth",
    "point-opt",
    "a0",
    "a0-reopt",
    "opt-a-auto",
    "sap0",
    "sap1",
    "wavelet-point",
    "wavelet-range",
)


def _read_csv_column(path: str, column: str) -> np.ndarray:
    """Raw integer attribute values from one CSV column."""
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or column not in reader.fieldnames:
            available = reader.fieldnames or []
            raise ReproError(
                f"column {column!r} not found in {path}; available: {available}"
            )
        values = [float(row[column]) for row in reader if row[column] != ""]
    if not values:
        raise ReproError(f"column {column!r} in {path} is empty")
    return np.asarray(values)


def _frequencies_from_args(args) -> np.ndarray:
    if args.csv:
        if not args.column:
            raise ReproError("--csv requires --column")
        raw = _read_csv_column(args.csv, args.column)
        from repro.engine.column import ColumnStatistics

        return ColumnStatistics.from_values(raw).count_frequencies
    generator = GENERATORS[args.generate]
    return generator(args.n, args.seed)


def _add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-build-attempt deadline in milliseconds; expiry raises "
        f"BuildTimeoutError (exit code {EXIT_BUILD_TIMEOUT}) unless a "
        "fallback chain catches it",
    )
    parser.add_argument(
        "--fallback-chain",
        default=None,
        help="builder rungs tried after the primary --method fails or "
        "times out, e.g. 'a0,naive' or 'a0 -> naive'; exhaustion exits "
        f"with code {EXIT_BUILD_FAILED}",
    )


def _add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--csv", help="CSV file with raw attribute values")
    parser.add_argument("--column", help="column name inside --csv")
    parser.add_argument(
        "--generate",
        choices=sorted(GENERATORS),
        default="paper",
        help="synthetic dataset when no --csv is given (default: paper)",
    )
    parser.add_argument("--n", type=int, default=127, help="synthetic domain size")
    parser.add_argument("--seed", type=int, default=None, help="synthetic data seed")


def _cmd_figure1(args) -> int:
    data = _frequencies_from_args(args)
    methods = list(args.methods) if args.methods else None
    points = run_figure1(
        data,
        budgets=tuple(args.budgets),
        **({"methods": methods} if methods else {}),
    )
    print(figure1_table(points))
    if args.chart:
        series: dict[str, dict[int, float]] = {}
        for point in points:
            series.setdefault(point.method, {})[point.budget_words] = point.sse
        print()
        print(ascii_log_chart(series, title="Figure 1 (log10 SSE vs words)"))
    return 0


def _cmd_inspect(args) -> int:
    from repro.core.describe import describe

    data = _frequencies_from_args(args)
    estimator = build_by_name(args.method, data, args.budget)
    print(describe(estimator, data))
    return 0


def _cmd_advise(args) -> int:
    from repro.engine.advisor import recommend

    data = _frequencies_from_args(args)
    ranked = recommend(data, args.budget)
    rows = [
        [choice.method, choice.storage_words if not choice.error else "-",
         choice.sse if not choice.error else f"failed: {choice.error}"[:48]]
        for choice in ranked
    ]
    print(
        format_table(
            ["method", "words", "sampled-workload SSE"],
            rows,
            title=f"Advisor ranking (n={data.size}, budget={args.budget} words)",
        )
    )
    return 0


def _cmd_compare(args) -> int:
    data = _frequencies_from_args(args)
    rows = []
    for method in COMPARE_METHODS:
        try:
            estimator = build_by_name(method, data, args.budget)
        except ReproError as error:
            rows.append([method, "-", f"skipped: {error}"[:60], "-"])
            continue
        report = evaluate(estimator, data)
        rows.append(
            [method, report.storage_words, report.sse, report.max_abs_error]
        )
    print(
        format_table(
            ["method", "words", "all-ranges SSE", "max |error|"],
            rows,
            title=f"Synopsis comparison (n={data.size}, budget={args.budget} words)",
        )
    )
    return 0


def _print_engine_stats(engine: ApproximateQueryEngine) -> None:
    stats = engine.stats()
    hits = stats.pop("synopsis_hits")
    print("engine stats:")
    for key in sorted(stats):
        value = stats[key]
        rendered = f"{value:.6g}" if isinstance(value, float) else value
        print(f"  {key}: {rendered}")
    for column, count in sorted(hits.items()):
        print(f"  hits[{column}]: {count}")


def _print_query_result(result, prefix: str = "") -> None:
    if isinstance(result, list):  # GROUP BY → list[GroupResult]
        for row in result:
            line = f"{prefix}group {row.group:g}: estimate {row.estimate:.2f}"
            if row.exact is not None:
                line += f"  exact {row.exact:.2f}"
            print(line)
        return
    print(f"{prefix}estimate: {result.estimate:.2f}")
    if result.exact is not None:
        print(f"{prefix}exact:    {result.exact:.2f}")
        relative = getattr(result, "relative_error", None)
        if relative is not None:
            print(f"{prefix}rel.err:  {relative:.2%}")
    words = getattr(result, "synopsis_words", None)
    suffix = f" ({words} words)" if words is not None else ""
    print(f"{prefix}synopsis: {result.synopsis_name}{suffix}")
    level = getattr(result, "degradation", None)
    if level is not None:
        print(f"{prefix}served:   {level}")


def _cmd_estimate(args) -> int:
    from repro.engine.engine import AggregateQuery
    from repro.engine.sql import parse_query

    raw = _read_csv_column(args.csv, args.column)
    engine = ApproximateQueryEngine()
    engine.register_table(Table(args.table, {args.column: np.round(raw).astype(np.int64)}))
    engine.build_synopsis(
        args.table,
        args.column,
        method=args.method,
        budget_words=args.budget,
        shards=args.shards,
        fallback=args.fallback_chain,
        deadline_ms=args.deadline_ms,
    )
    statements = args.query
    if len(statements) == 1:
        result = engine.execute_sql(statements[0], with_exact=not args.no_exact)
        _print_query_result(result)
    else:
        parsed = [parse_query(statement) for statement in statements]
        if all(isinstance(query, AggregateQuery) for query in parsed):
            results = engine.execute_batch(parsed, with_exact=not args.no_exact)
        else:
            results = [
                engine.execute_sql(statement, with_exact=not args.no_exact)
                for statement in statements
            ]
        for statement, result in zip(statements, results):
            print(f"-- {statement}")
            _print_query_result(result, prefix="   ")
    if args.stats:
        _print_engine_stats(engine)
    return 0


def _cmd_bench_batch(args) -> int:
    from repro.experiments.batching import run_batch_benchmark

    result = run_batch_benchmark(
        row_count=args.rows,
        domain=args.domain,
        query_count=args.queries,
        method=args.method,
        budget_words=args.budget,
        shards=args.shards,
        fallback=args.fallback_chain,
        deadline_ms=args.deadline_ms,
    )
    rows = [
        ["scalar execute() loop", result.scalar_seconds, result.scalar_qps],
        ["execute_batch()", result.batch_seconds, result.batch_qps],
    ]
    print(
        format_table(
            ["path", "seconds", "queries/sec"],
            rows,
            title=(
                f"Batch pipeline ({result.query_count} queries, "
                f"{result.row_count} rows, {args.method})"
            ),
        )
    )
    print(
        f"speedup: {result.speedup:.1f}x   "
        f"max |estimate diff|: {result.max_abs_difference:.3g}"
    )
    return 0


def _cmd_bench_refresh(args) -> int:
    import json

    from repro.experiments.sharding import run_refresh_benchmark

    result = run_refresh_benchmark(
        row_count=args.rows,
        domain=args.domain,
        shards=args.shards,
        append_count=args.appends,
        method=args.method,
        budget_words=args.budget,
        fallback=args.fallback_chain,
        deadline_ms=args.deadline_ms,
    )
    rows = [
        ["monolithic full rebuild", result.monolithic_seconds, 1],
        ["dirty-shard refresh", result.incremental_seconds, result.shards_rebuilt],
    ]
    print(
        format_table(
            ["path", "seconds", "shards rebuilt"],
            rows,
            title=(
                f"Incremental refresh ({result.shards} shards, "
                f"{result.row_count} rows, {args.method})"
            ),
        )
    )
    print(
        f"speedup: {result.speedup:.1f}x   "
        f"aligned max |err|: {result.aligned_max_abs_error:.3g}"
    )
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(result.to_dict(), handle, indent=2)
        print(f"result written to {args.output}")
    return 0


def _cmd_bench_shard_tree(args) -> int:
    import json

    from repro.experiments.shard_tree import run_shard_tree_benchmark

    result = run_shard_tree_benchmark(
        shards=args.shards,
        queries=args.queries,
        repeats=args.repeats,
    )
    rows = [
        ["flat sum (O(S)/query)", result.flat_seconds],
        ["dyadic tree (O(log S)/query)", result.tree_seconds],
        ["prefix diff (O(1)/query, O(S) rebuild)", result.prefix_seconds],
    ]
    print(
        format_table(
            ["interior strategy", "seconds"],
            rows,
            title=(
                f"Interior answering ({result.shards} shards, depth "
                f"{result.tree_depth}, {result.queries} ranges)"
            ),
        )
    )
    print(
        f"speedup: {result.speedup:.1f}x   "
        f"bit-identical: {result.bit_identical}"
    )
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(result.to_dict(), handle, indent=2)
        print(f"result written to {args.output}")
    return 0


def _cmd_compact(args) -> int:
    import json

    from repro.experiments.shard_tree import run_compaction_demo

    result = run_compaction_demo(
        row_count=args.rows,
        domain=args.domain,
        shards=args.shards,
        append_count=args.appends,
        method=args.method,
        budget_words=args.budget,
        hot_tail_shards=args.hot_tail,
        max_run_length=args.max_run,
    )
    rows = [[str(first), str(last), last - first + 1] for first, last in result.runs]
    print(
        format_table(
            ["run first", "run last", "shards"],
            rows,
            title=(
                f"Compaction {result.shards_before} -> "
                f"{result.shards_after} shards (generation "
                f"{result.generation})"
            ),
        )
    )
    print(result.summary())
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(result.to_dict(), handle, indent=2)
        print(f"result written to {args.output}")
    return 0


def _cmd_optimize(args) -> int:
    import json

    from repro.experiments.adaptive import run_adaptive_benchmark

    result = run_adaptive_benchmark(
        domain=args.domain,
        shards=args.shards,
        budget_words=args.budget,
        queries=args.queries,
        seed=args.seed,
        method=args.method,
    )
    rows = [
        [
            "mass split (uniform prior)",
            f"{result.uniform_sse:.2f}",
            str(result.hot_budget_before),
            "-",
        ],
        [
            "workload-adaptive split",
            f"{result.optimized_sse:.2f}",
            str(result.hot_budget_after),
            f"{result.improvement:.1f}x",
        ],
    ]
    print(
        format_table(
            ["budget policy", "observed SSE", "hot-band words", "improvement"],
            rows,
            title=(
                f"Adaptive reallocation ({result.shards} shards, "
                f"{result.budget_words} words, {result.query_count} "
                f"hot-band queries)"
            ),
        )
    )
    print(result.summary())
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(result.to_dict(), handle, indent=2)
        print(f"result written to {args.output}")
    return 0


def _serve_with_pool(args) -> int:
    """``serve --workers N``: answer the workload from worker processes.

    Publishes one shared-memory catalog snapshot, brings up ``N``
    supervised workers, submits the whole workload, then drains within
    ``--drain-timeout-ms``.  Every submitted query resolves — answered
    fresh, explicitly degraded, or failed with the drain cut-off — and
    the exit code reports how the shutdown went: 0 when every worker
    left on request, :data:`EXIT_FORCED_SHUTDOWN` when the budget
    expired and survivors were force-killed.
    """
    import json
    import time

    from repro.engine.engine import AggregateQuery
    from repro.queries.workload import random_ranges
    from repro.serving import PoolServer

    rng = np.random.default_rng(0)
    engine = ApproximateQueryEngine()
    engine.register_table(
        Table("serve", {"v": rng.integers(0, args.domain, args.rows)})
    )
    engine.build_synopsis(
        "serve", "v", method=args.method, budget_words=args.budget,
        shards=args.shards,
    )
    workload = random_ranges(args.domain, args.queries, seed=1)
    queries = [
        AggregateQuery(
            "serve", "v", "sum" if i % 2 else "count", int(low), int(high)
        )
        for i, (low, high) in enumerate(zip(workload.lows, workload.highs))
    ]
    expected = [
        result.estimate
        for result in engine.execute_batch(queries, on_stale="serve")
    ]

    server = PoolServer(
        engine,
        workers=args.workers,
        max_batch=args.max_batch,
        max_delay_ms=args.max_delay_ms,
        max_pending=args.queries + 1,
        drain_timeout_ms=args.drain_timeout_ms,
        cache_capacity=1,
    )
    try:
        server.install_sigterm_handler()
    except ValueError:  # not the main thread (embedded use)
        pass
    started = time.perf_counter()
    server.start()
    attach_deadline = time.monotonic() + 30.0
    while time.monotonic() < attach_deadline:
        snapshot = server.supervisor.snapshot()
        live = sum(1 for slot in snapshot.values() if slot["heartbeats"] >= 1)
        if live >= args.workers:
            break
        time.sleep(0.01)
    futures = server.submit_many(queries)
    clean = server.drain(timeout_ms=args.drain_timeout_ms)
    elapsed = time.perf_counter() - started

    fresh = degraded = failed = 0
    divergence = 0.0
    for future, want in zip(futures, expected):
        error = future.exception(timeout=0.1)
        if error is not None:
            failed += 1
            continue
        result = future.result(timeout=0.1)
        if result.degradation in ("stale", "fallback", "progressive"):
            degraded += 1
        else:
            fresh += 1
            divergence = max(divergence, abs(result.estimate - want))

    stats = server.stats()["pool"]
    print(
        format_table(
            ["outcome", "queries"],
            [
                ["fresh (bit-identical)", fresh],
                ["explicitly degraded", degraded],
                ["failed (drain cut-off)", failed],
            ],
            title=(
                f"Pool serve ({args.queries} queries, "
                f"{args.workers} workers, {args.method})"
            ),
        )
    )
    qps = args.queries / elapsed if elapsed else 0.0
    print(
        f"elapsed: {elapsed:.3f}s ({qps:,.0f} q/s)   "
        f"batches: {stats['dispatched']}   retries: {stats['retries']}   "
        f"worker exits: {stats['worker_exits']}   "
        f"max |estimate diff|: {divergence:.3g}"
    )
    if clean:
        print("drain: clean")
    else:
        print(
            f"drain: FORCED after {args.drain_timeout_ms:.0f} ms "
            f"(exit code {EXIT_FORCED_SHUTDOWN})"
        )
    if args.output:
        record = {
            "workers": args.workers,
            "queries": args.queries,
            "fresh": fresh,
            "degraded": degraded,
            "failed": failed,
            "seconds": elapsed,
            "drain_clean": clean,
            "max_abs_difference": divergence,
            "pool": stats,
        }
        with open(args.output, "w") as handle:
            json.dump(record, handle, indent=2, default=str)
        print(f"result written to {args.output}")
    return 0 if clean else EXIT_FORCED_SHUTDOWN


def _cmd_serve(args) -> int:
    """Drive a workload through the coalescing QueryServer and report.

    Offline stand-in for a long-lived daemon: builds a synopsis, fans
    the workload in from ``--threads`` client threads through one
    :class:`~repro.serving.QueryServer`, and prints throughput for the
    coalesced path next to the naive per-query loop, plus the server's
    own counters (cache hits, batches, shed levels).  With
    ``--workers N`` the workload is served by a multi-process
    :class:`~repro.serving.PoolServer` instead (see
    :func:`_serve_with_pool`).
    """
    import json

    from repro.experiments.serving import run_serve_benchmark

    if args.workers:
        return _serve_with_pool(args)

    result = run_serve_benchmark(
        row_count=args.rows,
        domain=args.domain,
        query_count=args.queries,
        thread_count=args.threads,
        method=args.method,
        budget_words=args.budget,
        max_batch=args.max_batch,
        max_delay_ms=args.max_delay_ms,
    )
    rows = [
        ["naive execute() loop", result.naive_seconds, f"{result.naive_qps:,.0f}"],
        ["coalesced QueryServer", result.served_seconds, f"{result.served_qps:,.0f}"],
    ]
    print(
        format_table(
            ["path", "seconds", "queries/sec"],
            rows,
            title=(
                f"Serve path ({result.query_count} queries, "
                f"{result.thread_count} threads, {args.method})"
            ),
        )
    )
    print(
        f"speedup: {result.speedup:.1f}x   "
        f"batches: {result.batches} (mean size {result.mean_batch_size:.0f})   "
        f"cache hits: {result.cache_hits}   "
        f"max |estimate diff|: {result.max_abs_difference:.3g}"
    )
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(result.as_dict(), handle, indent=2)
        print(f"result written to {args.output}")
    return 0


def _cmd_bench_pool(args) -> int:
    """Time an N-worker process pool against a 1-worker pool."""
    import json

    from repro.experiments.pool import run_pool_benchmark

    result = run_pool_benchmark(
        row_count=args.rows,
        domain=args.domain,
        shards=args.shards,
        budget_words=args.budget,
        query_count=args.queries,
        thread_count=args.threads,
        pool_workers=args.workers,
        max_batch=args.max_batch,
        max_delay_ms=args.max_delay_ms,
    )
    rows = [
        [
            f"{result.single_workers}-worker pool",
            result.single_seconds,
            f"{result.single_qps:,.0f}",
        ],
        [
            f"{result.pool_workers}-worker pool",
            result.pool_seconds,
            f"{result.pool_qps:,.0f}",
        ],
    ]
    print(
        format_table(
            ["configuration", "seconds", "queries/sec"],
            rows,
            title=(
                f"Worker pool ({result.query_count} queries, "
                f"{result.shards} shards, {result.thread_count} threads)"
            ),
        )
    )
    print(
        f"speedup: {result.speedup:.2f}x   "
        f"pickle-free: {result.engine_pickle_free}   "
        f"snapshot: {result.segment_bytes / 1024:.0f} KiB shared   "
        f"max |estimate diff|: {result.max_abs_difference:.3g}"
    )
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(result.as_dict(), handle, indent=2)
        print(f"result written to {args.output}")
    return 0


def _cmd_coverage_intervals(args) -> int:
    """Run the progressive-answer coverage study over one or more seeds.

    Prints per-stage empirical coverage against the claimed confidence
    for each seed and gates on ``--min-coverage`` at every stage plus
    bitwise exactness of the final stage.  ``--output`` writes the list
    of per-seed study records as JSON — the CI interval-coverage
    artifact (validated by ``validate-bench``).
    """
    import json

    from repro.experiments.progressive import run_coverage_study

    studies = []
    failed = False
    for seed in args.seeds:
        study = run_coverage_study(
            row_count=args.rows,
            domain=args.domain,
            query_count=args.queries,
            shards=args.shards,
            method=args.method,
            budget_words=args.budget,
            confidence=args.confidence,
            seed=seed,
            append_rows=args.append_rows,
        )
        studies.append(study)
        ok = (
            study.min_stage_coverage >= args.min_coverage
            and study.final_stage_bitwise
        )
        failed = failed or not ok
        print(("PASS  " if ok else "FAIL  ") + study.summary())
    if args.output:
        with open(args.output, "w") as handle:
            json.dump([study.as_dict() for study in studies], handle, indent=2)
        print(f"coverage artifact written to {args.output}")
    if failed:
        print(
            f"error: coverage below {args.min_coverage} (or final stage "
            "not bitwise) on at least one seed",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_validate_bench(args) -> int:
    """Schema-check ``BENCH_*.json`` artifacts; non-zero on violations."""
    from repro.experiments.bench_schema import (
        validate_artifact,
        validate_bench_artifacts,
    )

    if args.paths:
        reports = {path: validate_artifact(path) for path in args.paths}
    else:
        reports = validate_bench_artifacts(args.root)
    if not reports:
        print(f"no BENCH_*.json artifacts found under {args.root}")
        return 1
    bad = 0
    for name in sorted(reports):
        problems = reports[name]
        if problems:
            bad += 1
            print(f"FAIL  {name}")
            for problem in problems:
                print(f"      - {problem}")
        else:
            print(f"ok    {name}")
    if bad:
        print(f"error: {bad} artifact(s) failed validation", file=sys.stderr)
        return 1
    return 0


def _cmd_dump_metrics(args) -> int:
    """Replay a workload against a fresh engine and emit its metrics.

    COUNT and SUM batches ride the batch pipeline with the requested
    ``--audit-rate``, so the dump contains populated error windows, an
    error report, and batch timings — the artifact the CI benchmark job
    uploads, and the JSON/Prometheus surface a scraper would poll on a
    long-lived engine.
    """
    from repro.queries.workload import random_ranges

    data = _frequencies_from_args(args)
    counts = np.maximum(np.round(np.asarray(data)).astype(np.int64), 0)
    values = np.repeat(np.arange(counts.size), counts)
    if values.size == 0:
        raise ReproError("dataset has no mass; nothing to register")
    engine = ApproximateQueryEngine()
    engine.register_table(Table(args.table, {args.column_name: values}))
    engine.build_synopsis(
        args.table, args.column_name, method=args.method, budget_words=args.budget
    )
    workload = random_ranges(counts.size, args.queries, seed=args.seed or 0)
    for aggregate in ("count", "sum"):
        engine.execute_batch(
            workload.as_batch(args.table, args.column_name, aggregate=aggregate),
            audit_rate=args.audit_rate,
        )
    text = engine.dump_metrics(format=args.format)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"metrics written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_report(args) -> int:
    from repro.experiments.report import generate_report

    text = generate_report()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_timing(args) -> int:
    points = run_construction_timing(
        sizes=tuple(args.sizes), include_opt_a_up_to=args.opt_a_up_to
    )
    rows = [[p.method, p.n, p.seconds] for p in points]
    print(format_table(["method", "n", "seconds"], rows, title="Construction time"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Range-aggregate summary statistics (PODS 2001 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    figure1 = commands.add_parser("figure1", help="regenerate the Figure 1 sweep")
    _add_dataset_arguments(figure1)
    figure1.add_argument(
        "--budgets", type=int, nargs="+", default=[12, 20, 28, 36, 44, 52, 60]
    )
    figure1.add_argument(
        "--methods", nargs="+", choices=sorted(BUILDER_REGISTRY), default=None
    )
    figure1.add_argument("--chart", action="store_true", help="also draw an ASCII chart")
    figure1.set_defaults(handler=_cmd_figure1)

    inspect = commands.add_parser("inspect", help="show a synopsis's structure")
    _add_dataset_arguments(inspect)
    inspect.add_argument("--method", default="opt-a-auto", choices=sorted(BUILDER_REGISTRY))
    inspect.add_argument("--budget", type=int, default=24)
    inspect.set_defaults(handler=_cmd_inspect)

    advise = commands.add_parser("advise", help="rank synopsis methods for a dataset")
    _add_dataset_arguments(advise)
    advise.add_argument("--budget", type=int, default=40)
    advise.set_defaults(handler=_cmd_advise)

    compare = commands.add_parser("compare", help="compare synopses at one budget")
    _add_dataset_arguments(compare)
    compare.add_argument("--budget", type=int, default=40, help="storage budget in words")
    compare.set_defaults(handler=_cmd_compare)

    estimate = commands.add_parser("estimate", help="approximate SQL over a CSV column")
    estimate.add_argument("--csv", required=True)
    estimate.add_argument("--column", required=True)
    estimate.add_argument("--table", default="t", help="table name used in the query")
    estimate.add_argument("--method", default="sap1", choices=sorted(BUILDER_REGISTRY))
    estimate.add_argument("--budget", type=int, default=64)
    estimate.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition the domain into this many shards (aligned ranges exact)",
    )
    estimate.add_argument(
        "--query",
        required=True,
        action="append",
        help="e.g. 'SELECT COUNT(*) FROM t WHERE x BETWEEN 1 AND 9'; "
        "repeat to answer several (aggregates ride the batch pipeline)",
    )
    _add_resilience_arguments(estimate)
    estimate.add_argument("--no-exact", action="store_true", help="skip the exact scan")
    estimate.add_argument(
        "--stats", action="store_true", help="print the engine's execution counters"
    )
    estimate.set_defaults(handler=_cmd_estimate)

    bench_batch = commands.add_parser(
        "bench-batch", help="time scalar execute() against execute_batch()"
    )
    bench_batch.add_argument("--rows", type=int, default=100_000)
    bench_batch.add_argument("--domain", type=int, default=1024)
    bench_batch.add_argument("--queries", type=int, default=10_000)
    bench_batch.add_argument("--method", default="sap1", choices=sorted(BUILDER_REGISTRY))
    bench_batch.add_argument("--budget", type=int, default=128)
    bench_batch.add_argument(
        "--shards", type=int, default=1, help="shard the synopsis before benchmarking"
    )
    _add_resilience_arguments(bench_batch)
    bench_batch.set_defaults(handler=_cmd_bench_batch)

    bench_refresh = commands.add_parser(
        "bench-refresh",
        help="time dirty-shard incremental refresh against a full rebuild",
    )
    bench_refresh.add_argument("--rows", type=int, default=200_000)
    bench_refresh.add_argument("--domain", type=int, default=2048)
    bench_refresh.add_argument("--shards", type=int, default=64)
    bench_refresh.add_argument(
        "--appends", type=int, default=2_000, help="rows appended into one shard"
    )
    bench_refresh.add_argument(
        "--method", default="sap1", choices=sorted(BUILDER_REGISTRY)
    )
    bench_refresh.add_argument("--budget", type=int, default=1024)
    bench_refresh.add_argument(
        "--output", help="also write the result as JSON to this path"
    )
    _add_resilience_arguments(bench_refresh)
    bench_refresh.set_defaults(handler=_cmd_bench_refresh)

    bench_shard_tree = commands.add_parser(
        "bench-shard-tree",
        help="time O(log S) dyadic interior answering against the flat sum",
    )
    bench_shard_tree.add_argument("--shards", type=int, default=4096)
    bench_shard_tree.add_argument("--queries", type=int, default=4096)
    bench_shard_tree.add_argument("--repeats", type=int, default=3)
    bench_shard_tree.add_argument(
        "--output", help="also write the result as JSON to this path"
    )
    bench_shard_tree.set_defaults(handler=_cmd_bench_shard_tree)

    compact = commands.add_parser(
        "compact",
        help="merge cold shard runs of a hot-tail workload and report",
    )
    compact.add_argument("--rows", type=int, default=50_000)
    compact.add_argument("--domain", type=int, default=1024)
    compact.add_argument("--shards", type=int, default=32)
    compact.add_argument(
        "--appends", type=int, default=2_000, help="rows appended into the hot tail"
    )
    compact.add_argument("--method", default="a0", choices=sorted(BUILDER_REGISTRY))
    compact.add_argument("--budget", type=int, default=8192)
    compact.add_argument(
        "--hot-tail", type=int, default=4, help="trailing shards exempt from merging"
    )
    compact.add_argument(
        "--max-run", type=int, default=8, help="longest cold run merged at once"
    )
    compact.add_argument("--output", help="write the report as JSON")
    compact.set_defaults(handler=_cmd_compact)

    optimize = commands.add_parser(
        "optimize",
        help="demo the audit -> optimise -> rebuild loop on a skewed workload",
    )
    optimize.add_argument("--domain", type=int, default=1024)
    optimize.add_argument("--shards", type=int, default=16)
    optimize.add_argument("--budget", type=int, default=192)
    optimize.add_argument("--queries", type=int, default=400)
    optimize.add_argument("--seed", type=int, default=0)
    optimize.add_argument("--method", default="a0", choices=sorted(BUILDER_REGISTRY))
    optimize.add_argument("--output", help="write the report as JSON")
    optimize.set_defaults(handler=_cmd_optimize)

    serve = commands.add_parser(
        "serve",
        help="drive a workload through the coalescing QueryServer",
    )
    serve.add_argument("--rows", type=int, default=100_000)
    serve.add_argument("--domain", type=int, default=1024)
    serve.add_argument("--queries", type=int, default=20_000)
    serve.add_argument("--threads", type=int, default=4)
    serve.add_argument("--method", default="sap1", choices=sorted(BUILDER_REGISTRY))
    serve.add_argument("--budget", type=int, default=128)
    serve.add_argument("--max-batch", type=int, default=2048)
    serve.add_argument("--max-delay-ms", type=float, default=0.0)
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="serve from this many supervised worker processes attached "
        "to one shared-memory snapshot (default 0: in-process server)",
    )
    serve.add_argument(
        "--drain-timeout-ms",
        type=float,
        default=5000.0,
        help="graceful-drain budget on shutdown (--workers only); expiry "
        f"force-kills survivors and exits with code {EXIT_FORCED_SHUTDOWN}",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="shard the synopsis (--workers only; raises per-query work)",
    )
    serve.add_argument("--output", help="write the result record as JSON")
    serve.set_defaults(handler=_cmd_serve)

    bench_pool = commands.add_parser(
        "bench-pool",
        help="time an N-worker process pool against a 1-worker pool",
    )
    bench_pool.add_argument("--rows", type=int, default=200_000)
    bench_pool.add_argument("--domain", type=int, default=4096)
    bench_pool.add_argument("--shards", type=int, default=256)
    bench_pool.add_argument("--budget", type=int, default=4096)
    bench_pool.add_argument("--queries", type=int, default=8_000)
    bench_pool.add_argument("--threads", type=int, default=4)
    bench_pool.add_argument("--workers", type=int, default=4)
    bench_pool.add_argument("--max-batch", type=int, default=64)
    bench_pool.add_argument("--max-delay-ms", type=float, default=1.0)
    bench_pool.add_argument("--output", help="write the result record as JSON")
    bench_pool.set_defaults(handler=_cmd_bench_pool)

    coverage = commands.add_parser(
        "coverage-intervals",
        help="measure empirical coverage of progressive confidence intervals",
    )
    coverage.add_argument("--rows", type=int, default=20_000)
    coverage.add_argument("--domain", type=int, default=512)
    coverage.add_argument("--queries", type=int, default=2000)
    coverage.add_argument("--shards", type=int, default=8)
    coverage.add_argument("--method", default="sap1", choices=sorted(BUILDER_REGISTRY))
    coverage.add_argument("--budget", type=int, default=256)
    coverage.add_argument("--confidence", type=float, default=0.95)
    coverage.add_argument(
        "--seeds", type=int, nargs="+", default=[0], help="one study per seed"
    )
    coverage.add_argument(
        "--append-rows",
        type=int,
        default=0,
        help="rows appended post-build (exercises the stale/delta path)",
    )
    coverage.add_argument(
        "--min-coverage",
        type=float,
        default=0.93,
        help="per-stage empirical coverage gate (default: 0.93)",
    )
    coverage.add_argument("--output", help="write the per-seed studies as JSON")
    coverage.set_defaults(handler=_cmd_coverage_intervals)

    validate_bench = commands.add_parser(
        "validate-bench",
        help="schema-check BENCH_*.json benchmark artifacts",
    )
    validate_bench.add_argument(
        "paths", nargs="*", help="explicit artifact paths (default: scan --root)"
    )
    validate_bench.add_argument(
        "--root", default=".", help="directory scanned for BENCH_*.json"
    )
    validate_bench.set_defaults(handler=_cmd_validate_bench)

    dump = commands.add_parser(
        "dump-metrics",
        help="replay a workload and emit engine metrics (JSON or Prometheus text)",
    )
    _add_dataset_arguments(dump)
    dump.add_argument("--method", default="sap1", choices=sorted(BUILDER_REGISTRY))
    dump.add_argument("--budget", type=int, default=64)
    dump.add_argument("--queries", type=int, default=1000)
    dump.add_argument(
        "--audit-rate",
        type=float,
        default=1.0,
        help="fraction of queries audited against exact answers (default: 1.0)",
    )
    dump.add_argument("--format", choices=("json", "prometheus"), default="json")
    dump.add_argument("--table", default="t", help="table name used in the dump")
    dump.add_argument(
        "--column-name", default="value", help="column name used in the dump"
    )
    dump.add_argument("--output", help="write to a file instead of stdout")
    dump.set_defaults(handler=_cmd_dump_metrics)

    report = commands.add_parser("report", help="full reproduction report (markdown)")
    report.add_argument("--output", help="write to a file instead of stdout")
    report.set_defaults(handler=_cmd_report)

    timing = commands.add_parser("timing", help="construction-time table")
    timing.add_argument("--sizes", type=int, nargs="+", default=[64, 127, 256])
    timing.add_argument("--opt-a-up-to", type=int, default=127)
    timing.set_defaults(handler=_cmd_timing)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BuildTimeoutError as error:
        print(f"error: build deadline exceeded: {error}", file=sys.stderr)
        return EXIT_BUILD_TIMEOUT
    except BuildFailedError as error:
        print(f"error: build failed: {error}", file=sys.stderr)
        return EXIT_BUILD_FAILED
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # output piped into e.g. `head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
