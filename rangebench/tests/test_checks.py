"""Each correctness check passes on the program's answers and fails on a
perturbed one; the oracle and the round statistics are checked by hand."""

from __future__ import annotations

import time

import numpy as np
import pytest

from rangebench import rounds, workloads
from rangebench.checks import Checks, unequal_bits
from rangebench.inputs import Oracle, QuerySet, Spec, Traffic, aligned_set, initial_rows

SMALL = Spec(
    rows=20_000,
    domain=256,
    shards=16,
    budget_words=512,
    hot_set=64,
    append_rows=500,
    append_window=32,
    append_step=8,
    eval_queries=96,
)


def small_run(seconds: float = 0.5, traced: bool = False) -> workloads.Run:
    return workloads.Run(SMALL, seed=5, seconds=seconds, traced=traced, started=time.perf_counter())


def one_ulp_off(values, index=0):
    values = np.array(values, dtype=np.float64)
    values[index] = np.nextafter(values[index], np.inf)
    return values


# -- the check primitives --------------------------------------------------
def test_unequal_bits_counts_one_ulp_and_signed_zero():
    base = np.array([1.0, 0.0, 3.5])
    assert unequal_bits(base, base.copy()) == 0
    assert unequal_bits(one_ulp_off(base), base) == 1
    assert unequal_bits(np.array([1.0, -0.0, 3.5]), base) == 1


def test_tags_check_fails_on_a_wrong_tag():
    checks = Checks()
    checks.tags("reads", ["fresh", "fresh"], "fresh")
    assert checks.correct
    checks.tags("reads", ["fresh", "stale"], "fresh")
    assert not checks.correct


@pytest.mark.parametrize(
    "stats, engine_batch, sent",
    [
        ({"submitted": 31, "cache_hits": 10, "enqueued": 21, "served": 21}, 21, 32),
        ({"submitted": 32, "cache_hits": 10, "enqueued": 21, "served": 21}, 21, 32),
        ({"submitted": 32, "cache_hits": 10, "enqueued": 22, "served": 22}, 21, 32),
        (
            {"submitted": 32, "cache_hits": 10, "enqueued": 22, "served": 20,
             "pool": {"parent_recomputed": 1}},
            None,
            32,
        ),
    ],
)
def test_counter_check_fails_on_each_perturbed_tally(stats, engine_batch, sent):
    checks = Checks()
    checks.server_counters(sent, stats, engine_batch_queries=engine_batch)
    assert not checks.correct


def test_counter_check_passes_on_consistent_tallies():
    checks = Checks()
    checks.server_counters(
        32, {"submitted": 32, "cache_hits": 10, "enqueued": 22, "served": 22},
        engine_batch_queries=22,
    )
    checks.server_counters(
        32,
        {"submitted": 32, "cache_hits": 10, "enqueued": 22, "served": 21,
         "pool": {"parent_recomputed": 1}},
    )
    assert checks.correct, checks.problems


# -- inputs -------------------------------------------------------------------
def test_oracle_matches_a_brute_force_scan():
    rows = initial_rows(SMALL, 3)
    oracle = Oracle(SMALL, rows)
    extra = np.array([7, 7, 255, 0])
    oracle.append(extra)
    everything = np.concatenate((rows, extra))
    qs = QuerySet(np.array([0, 1, 2, 2]), np.array([0, 5, 7, 200]), np.array([255, 9, 7, 201]))
    want = []
    for agg, low, high in zip(qs.aggs, qs.lows, qs.highs):
        hit = everything[(everything >= low) & (everything <= high)]
        want.append([hit.size, hit.sum(), hit.mean() if hit.size else 0.0][agg])
    np.testing.assert_array_equal(oracle.answers(qs), np.array(want, dtype=np.float64))
    assert oracle.row_count == everything.size


def test_fresh_queries_never_repeat_within_or_across_clients():
    clients = [Traffic(SMALL, 9, c, 2) for c in range(2)]
    hot = set(clients[0].hot.keys().tolist())
    fresh = []
    for traffic in clients:
        for block in traffic.blocks(20):
            keys = block.keys().tolist()
            fresh.extend(key for key in keys if key not in hot)
    assert len(fresh) == 2 * 20 * SMALL.block // 2
    assert len(set(fresh)) == len(fresh)


def test_aligned_set_ends_on_shard_boundaries():
    aligned = aligned_set(SMALL, 4)
    width = SMALL.shard_width
    assert np.all(aligned.lows % width == 0)
    assert np.all((aligned.highs + 1) % width == 0)
    assert np.all(aligned.lows <= aligned.highs)
    assert len(aligned) == SMALL.block


# -- rounds ---------------------------------------------------------------------
def test_round_statistics():
    samples = [(0.1, 1.0), (0.3, 2.0), (0.55, 4.0), (0.9, 9.0), (1.2, 5.0)]
    assert rounds.by_round(samples, 0.0, 0.25, 4) == [[1.0], [2.0], [4.0], [9.0]]
    assert rounds.favourable(list(range(11)), "lower") == pytest.approx(0.2)
    assert rounds.favourable(list(range(11)), "higher") == pytest.approx(9.8)
    rates = rounds.round_rates([[(0.0, 0), (0.1, 0), (0.2, 0)]], 0.0, 0.25, 1, 16)
    assert rates == [pytest.approx(160.0)]
    assert rounds.tail(list(range(1000)))[:2] == (99.0, 989.0)
    assert rounds.tail(list(range(50)))[0] == 50.0
    assert rounds.best_per_segment([[3.0, 1.0], [], [5.0, 9.0], [2.0]]) == 2.0


# -- each check on the real program, then on a perturbed answer ---------------
@pytest.fixture
def engine_run():
    run = small_run()
    workloads.set_up(run, tier=None)
    return run


def _engine_answer(run):
    return lambda qs: (run.reference(qs), ["fresh"] * len(qs))


def test_aligned_check_passes_then_fails_on_a_perturbed_answer(engine_run):
    run = engine_run
    workloads.check_aligned(run, _engine_answer(run), workloads.Answered())
    assert run.checks.correct, run.checks.problems
    perturbed = lambda qs: (one_ulp_off(run.reference(qs), 5), ["fresh"] * len(qs))  # noqa: E731
    workloads.check_aligned(run, perturbed, workloads.Answered())
    assert not run.checks.correct


def test_whole_domain_count_must_track_ingested_rows(engine_run):
    run = engine_run
    run.oracle.append(np.array([3, 4]))  # rows the program never saw
    workloads.check_aligned(run, _engine_answer(run), workloads.Answered())
    assert any("whole-domain COUNT" in p for p in run.checks.problems)


def test_identity_check_fails_on_a_perturbed_served_answer(engine_run):
    run = engine_run
    qs = aligned_set(SMALL, 1)
    answered = workloads.Answered()
    answered.add(qs, run.reference(qs))
    answered.verify(run, "served")
    assert run.checks.correct
    answered.add(qs, one_ulp_off(run.reference(qs), 2))
    answered.verify(run, "served")
    assert not run.checks.correct


def test_scalar_answers_equal_batch_answers(engine_run):
    run = engine_run
    qs = aligned_set(SMALL, 2, count=40)
    estimates, tags = workloads.execute_scalar(run, qs)
    assert tags == ["fresh"] * len(qs)
    assert unequal_bits(estimates, run.reference(qs)) == 0


# -- whole workloads ------------------------------------------------------------
@pytest.mark.parametrize("name", ["lookup", "serve", "ingest"])
def test_small_workload_is_correct(name):
    run = small_run()
    try:
        workloads.WORKLOADS[name](run)
    finally:
        if run.server is not None:
            run.server.stop()
    assert run.checks.correct, run.checks.problems
    assert run.failed == 0, run.failures
    assert run.attempted > 0
    assert set(run.metrics) >= {"setup_s", "request_p50_ms", "answer_nrmse", "peak_rss_mb"}
    assert all(value > 0 for value, _ in run.metrics.values())


def test_serve_workload_catches_a_cache_serving_a_wrong_answer(monkeypatch):
    from dataclasses import replace

    from repro.serving.answer_cache import AnswerCache

    original = AnswerCache.get_many

    def corrupt(self, keys, tokens):
        return [
            None if hit is None else replace(hit, estimate=hit.estimate + 1.0)
            for hit in original(self, keys, tokens)
        ]

    monkeypatch.setattr(AnswerCache, "get_many", corrupt)
    run = small_run()
    try:
        workloads.serve(run)
    finally:
        if run.server is not None:
            run.server.stop()
    assert any("answers vs execute_batch" in p for p in run.checks.problems)


def test_traced_run_restores_every_patched_entry_point():
    from repro.engine.engine import ApproximateQueryEngine
    from repro.serving.coalescer import ServeFuture

    before = (ApproximateQueryEngine.execute, ServeFuture.resolve_batch)
    run = small_run(traced=True)
    try:
        workloads.serve(run)
    finally:
        if run.server is not None:
            run.server.stop()
    assert not run.tracer.installed
    assert (ApproximateQueryEngine.execute, ServeFuture.resolve_batch) == before
    assert "execute_batch" not in ApproximateQueryEngine.__dict__
    layers = run.tracer.layer_metrics()
    assert layers["engine.batch_ms"] > 0 and layers["coalescer.batch_size"] > 0
    assert run.checks.correct, run.checks.problems
