"""Run one benchmark workload and print its metrics as one JSON line.

    python3 rangebench/run.py --workload serve --seed 3 --seconds 20 --trace 0

Run it from the root of a checkout: the program under test is imported
from ``src/`` beside this directory.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the same workload with every
other round traced, writes the spans to ``rangebench/traces/`` and
prints the per-layer metrics.  Progress and any failures go to stderr;
the last line of stdout is the result.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: name -> (unit, better), in the order BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "request_p50_ms": ("ms", "lower"),
    "queries_per_s": ("queries/s", "higher"),
    "append_p50_ms": ("ms", "lower"),
    "refresh_p50_ms": ("ms", "lower"),
    "answer_nrmse": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

PER_LAYER = {
    "engine.execute_us": ("us", "lower"),
    "engine.execute_self_us": ("us", "lower"),
    "engine.batch_ms": ("ms", "lower"),
    "engine.batch_self_ms": ("ms", "lower"),
    "engine.batch_calls": ("1/request", "lower"),
    "sharding.estimate_us": ("us", "lower"),
    "sharding.self_us": ("us", "lower"),
    "sharding.partials_per_query": ("1/query", "lower"),
    "shard_tree.range_sum_us": ("us", "lower"),
    "estimator.estimate_us": ("us", "lower"),
    "estimator.calls_per_query": ("1/query", "lower"),
    "server.admit_us": ("us", "lower"),
    "coalescer.wait_ms": ("ms", "lower"),
    "coalescer.batches": ("1/request", "lower"),
    "coalescer.batch_size": ("queries", "higher"),
    "cache.hit_share": ("share", "higher"),
    "cache.get_us": ("us", "lower"),
    "cache.put_us": ("us", "lower"),
    "cache.invalidated": ("share", "lower"),
    "pool.start_s": ("s", "lower"),
    "pool.publish_ms": ("ms", "lower"),
    "pool.segment_bytes": ("bytes", "lower"),
    "pool.roundtrip_ms": ("ms", "lower"),
    "pool.worker_rss_mb": ("MB", "lower"),
    "pool.dispatched": ("1/request", "lower"),
    "pool.retries": ("count", "lower"),
    "pool.parent_recomputed": ("count", "lower"),
    "engine.append_ms": ("ms", "lower"),
    "engine.refresh_self_ms": ("ms", "lower"),
    "column.stats_ms": ("ms", "lower"),
    "core.shard_builds": ("1/refresh", "lower"),
    "core.shard_build_ms": ("ms", "lower"),
    "setup.import_s": ("s", "lower"),
    "setup.build_s": ("s", "lower"),
    "setup.tier_s": ("s", "lower"),
    "request_tail_ms": ("ms", "lower"),
    "request_tail_pct": ("%", "higher"),
    "request_samples": ("count", "higher"),
    "trace.overhead": ("ratio", "lower"),
}


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _stop_resource_tracker() -> None:
    """Wait for the shared-memory tracker process the pool may have started."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from rangebench.inputs import Spec
    from rangebench.workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    run = Run(Spec(), args.seed, args.seconds, bool(args.trace), _STARTED)
    try:
        WORKLOADS[args.workload](run)
    finally:
        if run.server is not None:
            run.server.stop()
        _stop_resource_tracker()
    for problem in run.checks.problems + run.failures:
        print(f"{args.workload}: {problem}", file=sys.stderr)

    if args.trace:
        run.layers.update(run.tracer.layer_metrics())
        traces = HERE / "traces"
        traces.mkdir(exist_ok=True)
        run.tracer.write(traces / f"{args.workload}-seed{args.seed}.jsonl")
        metrics = {
            name: {"value": float(run.layers.get(name, 0.0)), "unit": unit}
            for name, (unit, _) in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": run.metrics[name][0], "unit": unit}
            for name, (unit, _) in END_TO_END.items()
        }
    print(
        json.dumps(
            {
                "correct": run.checks.correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
