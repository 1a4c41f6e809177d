"""Where serving wall time goes: decode and flush phases.

This is the harness that found the concurrency-32 regression.  It runs
the *same* workload as ``bench_serving.py`` (shared via
``serving_workload``) and splits each run's wall clock into the phases
the serving stack instruments:

* **flush build** — accumulating lowered kernels into the preallocated
  ``LoweredBatchBuilder`` arrays (the phase that used to be per-request
  dict churn);
* **flush predict** — the batched matrix evaluation;
* **flush resolve** — fanning results back out to request futures;
* **handoff + queueing** — the residual: client submission, scheduler
  wakeups, GIL contention.  This is the slice that grew super-linearly
  with concurrency before the fix.

A microbench isolates the one cost the aggregate cannot: **frontend
decode** — one JSON request line parsed and resolved to kernels versus
the same group decoded from a binary frame (``_decode_binary_request``);
the ratio is what motivates the negotiated binary framing.

Results land in ``results/profile_serving.txt`` and
``results/BENCH_profile_serving.json``.  Attribution totals are asserted
to be sane (phases sum to less than the wall clock, nothing negative)
but the harness passes no throughput judgement — that is
``bench_serving.py``'s job.
"""

from __future__ import annotations

import json
import struct
import time

import numpy as np
import pytest

from repro.artifacts import ArtifactRegistry
from repro.measure.fingerprint import machine_fingerprint
from repro.predictors import PalmedPredictor
from repro.serving import PredictionService
from repro.serving.frontend import (
    _BINARY_REQUEST_MAGIC,
    _decode_binary_request,
    _parse_blocks,
)

from conftest import write_result
from record import write_bench_record
from serving_workload import (
    GROUP,
    build_corpus,
    build_streams,
    run_clients,
    serving_artifact,
    serving_machine as build_serving_machine,
)

#: Requests per attribution run (smaller than the ladder bench: the goal
#: is a stable phase split, not a peak number).
REQUESTS = 12000
#: The ladder slice around the historical regression point.
CONCURRENCIES = (8, 32, 64)
#: Iterations for the per-group decode microbench.
MICRO_ITERATIONS = 400


@pytest.fixture(scope="module")
def profile_machine():
    return build_serving_machine()


@pytest.fixture(scope="module")
def profile_corpus(profile_machine):
    return build_corpus(profile_machine)


@pytest.fixture(scope="module")
def profile_registry(tmp_path_factory, profile_machine):
    root = tmp_path_factory.mktemp("serving-profile-registry")
    ArtifactRegistry(root).save(serving_artifact(profile_machine))
    return root


def _attribution_run(registry, fingerprint, corpus, concurrency):
    """One warmed run; returns the phase split of its wall clock (ms)."""
    streams = build_streams(corpus, concurrency, REQUESTS)
    with PredictionService(
        registry, max_batch_size=1024, max_pending=None
    ) as service:
        service.predict_many(fingerprint, corpus)  # warm lowerings + lane
        warm = service.snapshot()
        elapsed, counts = run_clients(
            service, fingerprint, streams, collect=False
        )
        snapshot = service.snapshot()
    # build_streams floors to per-client counts; 12000/64 does not divide.
    expected = sum(len(group) for stream in streams for group in stream)
    assert sum(counts) == expected
    # The warm-up pass flushed too; attribute only the timed window.
    build = snapshot["flush_build_ms_total"] - warm["flush_build_ms_total"]
    predict = (
        snapshot["flush_predict_ms_total"] - warm["flush_predict_ms_total"]
    )
    resolve = (
        snapshot["flush_resolve_ms_total"] - warm["flush_resolve_ms_total"]
    )
    wall = elapsed * 1e3
    residual = wall - build - predict - resolve
    return {
        "concurrency": concurrency,
        "wall_ms": round(wall, 1),
        "flush_build_ms": round(build, 1),
        "flush_predict_ms": round(predict, 1),
        "flush_resolve_ms": round(resolve, 1),
        "handoff_queueing_ms": round(residual, 1),
        "requests_per_s": round(sum(counts) / elapsed, 1),
        "flushes": snapshot["batches_flushed"] - warm["batches_flushed"],
        "occupancy_mean": round(snapshot["batch_occupancy_mean"], 1),
    }


def _blocks_of(kernel):
    """A kernel as the wire's {mnemonic: multiplicity} block."""
    return {
        instruction.name: multiplicity
        for instruction, multiplicity in kernel.items()
    }


def _encode_binary_group(blocks, dense_index):
    """One group of blocks as a binary request payload (client-side wire)."""
    sizes, lengths, all_ids, all_counts = [], [], [], []
    for block in blocks:
        totals = {}
        for name, value in block.items():
            dense = dense_index[name]
            totals[dense] = totals.get(dense, 0.0) + float(value)
        size = 0.0
        for total in totals.values():
            size += total
        ordered = sorted(totals)
        sizes.append(size)
        lengths.append(len(ordered))
        all_ids.extend(ordered)
        all_counts.extend(totals[dense] for dense in ordered)
    k, e = len(blocks), len(all_ids)
    return b"".join(
        (
            struct.pack("<IIII", _BINARY_REQUEST_MAGIC, 0, k, e),
            struct.pack(f"<{k}d", *sizes),
            struct.pack(f"<{e}d", *all_counts),
            struct.pack(f"<{k}I", *lengths),
            struct.pack(f"<{e}I", *all_ids),
        )
    )


def _decode_microbench(registry, fingerprint, corpus):
    """JSON-line decode vs binary-frame decode, same groups (us/group)."""
    with PredictionService(registry) as service:
        compiled = service.compiled(fingerprint)
        names, interned = compiled.dense_instruction_table()
        dense_index = {name: index for index, name in enumerate(names)}
        lookup = np.ascontiguousarray(np.asarray(interned, dtype=np.intp))

        groups = [
            [_blocks_of(kernel) for kernel in corpus[i : i + GROUP]]
            for i in range(0, GROUP * MICRO_ITERATIONS, GROUP)
        ]
        json_lines = [
            json.dumps({"id": 7, "fingerprint": fingerprint, "blocks": blocks})
            for blocks in groups
        ]
        frames = [
            _encode_binary_group(blocks, dense_index) for blocks in groups
        ]

        start = time.perf_counter()
        for line in json_lines:
            request = json.loads(line)
            _parse_blocks(compiled, request["blocks"])
        json_s = time.perf_counter() - start

        table_size = len(names)
        start = time.perf_counter()
        for payload in frames:
            _decode_binary_request(payload, table_size, lookup)
        binary_s = time.perf_counter() - start

    json_us = 1e6 * json_s / len(groups)
    binary_us = 1e6 * binary_s / len(groups)
    return {
        "groups": len(groups),
        "blocks_per_group": GROUP,
        "json_us_per_group": round(json_us, 2),
        "binary_us_per_group": round(binary_us, 2),
        "json_over_binary": round(json_us / binary_us, 2),
    }


def test_profile_serving(profile_registry, profile_machine, profile_corpus):
    """The full profile: phase attribution plus the decode microbench."""
    fingerprint = machine_fingerprint(profile_machine)

    rows = [
        _attribution_run(
            profile_registry, fingerprint, profile_corpus, concurrency
        )
        for concurrency in CONCURRENCIES
    ]
    decode = _decode_microbench(profile_registry, fingerprint, profile_corpus)

    lines = [
        "=== Serving wall-time attribution (shared ladder workload) ===",
        f"{REQUESTS} requests per run; phases from the per-flush "
        "instrumentation, residual = handoff + queueing",
        "",
        f"{'conc':>5} {'wall(ms)':>9} {'build':>7} "
        f"{'predict':>8} {'resolve':>8} {'handoff+q':>10} {'req/s':>9}",
    ]
    for row in rows:
        lines.append(
            f"{row['concurrency']:>5} "
            f"{row['wall_ms']:>9,.0f} {row['flush_build_ms']:>7,.0f} "
            f"{row['flush_predict_ms']:>8,.0f} "
            f"{row['flush_resolve_ms']:>8,.0f} "
            f"{row['handoff_queueing_ms']:>10,.0f} "
            f"{row['requests_per_s']:>9,.0f}"
        )
    lines.extend(
        [
            "",
            "--- frontend decode (one group of "
            f"{GROUP} blocks) ---",
            f"json line:    {decode['json_us_per_group']:>8.1f} us/group",
            f"binary frame: {decode['binary_us_per_group']:>8.1f} us/group "
            f"({decode['json_over_binary']:.1f}x cheaper)",
        ]
    )
    write_result("profile_serving.txt", "\n".join(lines))
    write_bench_record(
        "BENCH_profile_serving.json",
        {
            "bench": "profile_serving",
            "requests_per_run": REQUESTS,
            "attribution": rows,
            "frontend_decode": decode,
        },
    )

    # Sanity of the attribution, not of throughput: the instrumented
    # phases must fit inside the wall clock and nothing may be negative.
    for row in rows:
        attributed = (
            row["flush_build_ms"]
            + row["flush_predict_ms"]
            + row["flush_resolve_ms"]
        )
        assert 0.0 < attributed < row["wall_ms"], row
        assert row["handoff_queueing_ms"] > 0.0, row
        assert row["flushes"] > 0, row
    # The binary frame decodes a group in vectorized numpy; the JSON line
    # re-parses names and dicts per block.  If this inverts, the format
    # negotiation lost its reason to exist.
    assert decode["json_over_binary"] > 1.0, decode
