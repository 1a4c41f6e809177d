"""Online serving throughput — the concurrency ladder.

The concurrency-32 regression this bench guards against: the original
serving stack *lost* throughput going from concurrency 8 to 32 (39,474 ->
33,018 requests/s; latency 7.4 -> 25.3 ms) because every added client
thread bought more GIL contention, per-kernel lock churn and dict
rebuilding instead of more coalescing.  The fix — flat-array lowerings, a
preallocated flush path and conditional wakeups — must make the ladder
**monotone**: requests/s may only grow (within a noise tolerance) from
concurrency 1 through 8, 32 and 64, and the peak must at least double the
old 39,474 requests/s.

Workload (shared with ``profile_serving.py`` via ``serving_workload``): a
hot-content corpus of 2000 large basic blocks on a SKL-like machine with
a 64-instruction ISA; clients pipeline groups of 4 blocks with a window
of 8 in-flight groups; request streams are precomputed outside the timed
region and identical across trials and concurrency levels.  Each
concurrency level reports the best of its trials, interleaved across the
ladder so host drift hits every level alike.

Asserted invariants:

* every served response is **bitwise-identical** to the offline scalar
  prediction of the same block (dedicated identity pass at concurrency
  32);
* requests/s is monotone up the ladder within a 0.85 tolerance ratio;
* the peak is >= 2x the pre-fix 39,474 requests/s;
* concurrency 32 sustains >= 5x the per-request scalar loop;
* nothing is refused, dropped or failed at any load.

Results land in ``results/serving_throughput.txt`` (human table) and
``results/BENCH_serving.json`` (machine-readable; CI checks the committed
ladder stays monotone).  The timing-sensitive test stays local-only; CI
smoke-runs the identity/occupancy test.
"""

from __future__ import annotations

import pytest

from repro.artifacts import ArtifactRegistry
from repro.measure.fingerprint import machine_fingerprint
from repro.predictors import PalmedPredictor
from repro.serving import PredictionService

from conftest import write_result
from record import write_bench_record
from serving_workload import (
    BLOCK_DISTINCT,
    CORPUS_BLOCKS,
    GROUP,
    WINDOW,
    build_corpus,
    build_streams,
    identical,
    scalar_baseline,
    scalar_reference_table,
    serving_artifact,
    serving_machine as build_serving_machine,
)

#: Requests per (concurrency, trial) run.
REQUESTS = 32000
#: The pre-fix throughput peak (requests/s at concurrency 8); the ladder's
#: peak must at least double it.
PRE_FIX_PEAK_RPS = 39474.0
#: The concurrency ladder; the regression lived at the 8 -> 32 step.
LADDER = (1, 8, 32, 64)
#: Best-of-N per ladder rung; the 1-core host jitters by ~20% run to run,
#: so the ladder needs several interleaved sweeps for the best to
#: stabilize.
TRIALS = 5
#: Noise tolerance for the monotonicity assertion: each rung must reach at
#: least this fraction of the best rung below it (single-core CI hosts
#: jitter by ~15%).
MONOTONE_TOLERANCE = 0.85


@pytest.fixture(scope="module")
def bench_machine():
    return build_serving_machine()


@pytest.fixture(scope="module")
def bench_corpus(bench_machine):
    return build_corpus(bench_machine)


@pytest.fixture(scope="module")
def bench_registry(tmp_path_factory, bench_machine):
    root = tmp_path_factory.mktemp("serving-bench-registry")
    ArtifactRegistry(root).save(serving_artifact(bench_machine))
    return root


@pytest.fixture(scope="module")
def scalar_predictor(bench_machine):
    return PalmedPredictor(
        bench_machine.true_conjunctive(include_front_end=True)
    )


def _fresh_service(registry):
    return PredictionService(registry, max_batch_size=1024, max_pending=None)


def _timed_run(registry, fingerprint, corpus, streams):
    """One warmed throughput run; returns (requests/s, stats snapshot)."""
    from serving_workload import run_clients

    with _fresh_service(registry) as service:
        # Warm the lowering cache into the sustained regime (the corpus is
        # hot content: every block repeats many times) before the clock
        # starts.
        service.predict_many(fingerprint, corpus)
        elapsed, counts = run_clients(
            service, fingerprint, streams, collect=False
        )
        snapshot = service.snapshot()
    requests = sum(counts)
    assert snapshot["requests_refused"] == 0
    assert snapshot["requests_failed"] == 0
    return requests / elapsed, snapshot


def test_serving_identical_under_concurrency(
    bench_registry, bench_machine, bench_corpus, scalar_predictor
):
    """CI smoke: concurrent served responses are bitwise-equal to scalar.

    Also checks micro-batches actually form (occupancy > 1) with nothing
    refused or dropped.
    """
    from serving_workload import run_clients

    fingerprint = machine_fingerprint(bench_machine)
    reference = scalar_reference_table(scalar_predictor, bench_corpus)
    streams = build_streams(bench_corpus, concurrency=8, total_requests=4000)
    with _fresh_service(bench_registry) as service:
        elapsed, responses = run_clients(
            service, fingerprint, streams, collect=True
        )
        snapshot = service.snapshot()

    checked = 0
    for results in responses:
        for kernel, prediction in results:
            assert identical(prediction, reference[id(kernel)]), (
                "served response differs from scalar"
            )
            checked += 1
    assert checked == 4000
    assert snapshot["requests_completed"] == 4000
    assert snapshot["requests_refused"] == 0
    assert snapshot["requests_failed"] == 0
    assert snapshot["batch_occupancy_mean"] > 1.5, (
        f"concurrent traffic must coalesce into micro-batches, got mean "
        f"occupancy {snapshot['batch_occupancy_mean']:.2f}"
    )


def test_serving_throughput_scaling(
    bench_registry, bench_machine, bench_corpus, scalar_predictor
):
    """The full ladder: monotone requests/s, 2x the pre-fix peak, bitwise."""
    fingerprint = machine_fingerprint(bench_machine)
    baseline_rps = scalar_baseline(scalar_predictor, bench_corpus, 8000)
    streams_by_concurrency = {
        concurrency: build_streams(bench_corpus, concurrency, REQUESTS)
        for concurrency in LADDER
    }

    # Interleave trials across the whole ladder so that slow host drift
    # biases every rung equally rather than one.
    best = {}
    snapshots = {}
    for _ in range(TRIALS):
        for concurrency in LADDER:
            rps, snapshot = _timed_run(
                bench_registry,
                fingerprint,
                bench_corpus,
                streams_by_concurrency[concurrency],
            )
            if rps > best.get(concurrency, 0.0):
                best[concurrency] = rps
                snapshots[concurrency] = snapshot

    # Identity pass: at the regression's concurrency, every response is
    # bitwise-equal to the offline scalar prediction.
    from serving_workload import run_clients

    reference = scalar_reference_table(scalar_predictor, bench_corpus)
    identity_streams = build_streams(
        bench_corpus, concurrency=32, total_requests=8000, seed=8800
    )
    with _fresh_service(bench_registry) as service:
        _, responses = run_clients(
            service, fingerprint, identity_streams, collect=True
        )
    checked = 0
    for results in responses:
        for kernel, prediction in results:
            assert identical(prediction, reference[id(kernel)]), (
                "served response differs from offline scalar prediction"
            )
            checked += 1
    assert checked == 8000

    # -- report --------------------------------------------------------------
    lines = [
        "=== Online serving: concurrency ladder ===",
        f"corpus: {CORPUS_BLOCKS} hot blocks "
        f"({BLOCK_DISTINCT[0]}-{BLOCK_DISTINCT[1]} distinct instructions), "
        f"SKL-like machine, 64-instruction ISA",
        f"clients pipeline groups of {GROUP} blocks, window {WINDOW} groups; "
        f"{REQUESTS} requests per run, best of {TRIALS} interleaved trials",
        "",
        f"scalar per-request loop baseline: {baseline_rps:,.0f} requests/s",
        f"pre-fix peak (concurrency 8):     {PRE_FIX_PEAK_RPS:,.0f} requests/s",
        "",
        f"{'concurrency':>11} {'requests/s':>12} "
        f"{'speedup':>9} {'occupancy':>10} {'latency(ms)':>12}",
    ]
    ladder_records = []
    for concurrency in LADDER:
        rps = best[concurrency]
        snapshot = snapshots[concurrency]
        speedup = rps / baseline_rps
        lines.append(
            f"{concurrency:>11} {rps:>12,.0f} "
            f"{speedup:>8.1f}x {snapshot['batch_occupancy_mean']:>10.1f} "
            f"{snapshot['latency_mean_ms']:>12.2f}"
        )
        ladder_records.append(
            {
                "concurrency": concurrency,
                "requests_per_s": round(rps, 1),
                "speedup_vs_scalar": round(speedup, 2),
                "occupancy_mean": round(snapshot["batch_occupancy_mean"], 2),
                "latency_mean_ms": round(snapshot["latency_mean_ms"], 3),
            }
        )
    peak_concurrency = max(best, key=best.get)
    peak_rps = best[peak_concurrency]
    lines.extend(
        [
            "",
            f"peak: {peak_rps:,.0f} requests/s "
            f"(concurrency {peak_concurrency}) — "
            f"{peak_rps / PRE_FIX_PEAK_RPS:.1f}x the pre-fix peak",
            "bitwise equality served == offline scalar: verified on all "
            "8000 concurrency-32 responses",
        ]
    )
    write_result("serving_throughput.txt", "\n".join(lines))
    write_bench_record(
        "BENCH_serving.json",
        {
            "bench": "serving_throughput",
            "machine": "skl_like_isa64",
            "corpus_blocks": CORPUS_BLOCKS,
            "group": GROUP,
            "window": WINDOW,
            "requests_per_run": REQUESTS,
            "trials": TRIALS,
            "monotone_tolerance": MONOTONE_TOLERANCE,
            "scalar_baseline_rps": round(baseline_rps, 1),
            "pre_fix_peak_rps": PRE_FIX_PEAK_RPS,
            "ladder": ladder_records,
            "peak_rps": round(peak_rps, 1),
            "peak_concurrency": peak_concurrency,
            "bitwise_identical": True,
        },
    )

    # -- acceptance ----------------------------------------------------------
    floor = 0.0
    for concurrency in LADDER:
        rps = best[concurrency]
        assert rps >= MONOTONE_TOLERANCE * floor, (
            f"ladder regressed: {rps:,.0f} requests/s at concurrency "
            f"{concurrency} vs {floor:,.0f} below it "
            f"(tolerance {MONOTONE_TOLERANCE})"
        )
        floor = max(floor, rps)

    assert peak_rps >= 2.0 * PRE_FIX_PEAK_RPS, (
        f"peak {peak_rps:,.0f} requests/s is below 2x the pre-fix peak "
        f"({2 * PRE_FIX_PEAK_RPS:,.0f} required)"
    )
    speedup = best[32] / baseline_rps
    assert speedup >= 5.0, (
        f"only {speedup:.1f}x the scalar baseline at concurrency 32 "
        f"(required >= 5x)"
    )
