"""Shared serving-bench workload: corpus, artifact, client driver, baseline.

``bench_serving.py`` (the throughput ladder) and ``profile_serving.py``
(the phase-attribution harness) must measure *the same* workload — same
machine, same corpus shape, same client behaviour — or their numbers
cannot be read against each other.  This module is that single
definition.

The workload models a serving node's sustained regime: a hot-content
corpus of large basic blocks (the unrolled/vectorized hot loops that
dominate Fig. 4b-style suites), clients that pipeline small groups of
requests with a bounded in-flight window, and seeded RNGs throughout so
every run replays the identical request stream.

Request streams are **precomputed outside the timed region**
(:func:`build_streams`): the timed loop does nothing but submit and
drain, so the ladder measures the serving stack, not Python RNG calls.
"""

from __future__ import annotations

import random
import struct
import threading
import time
from collections import deque

from repro import Microkernel, build_skylake_like_machine, build_small_isa
from repro.artifacts import MappingArtifact
from repro.measure.fingerprint import machine_fingerprint
from repro.palmed.result import PalmedStats

#: Hot-content corpus size (distinct blocks clients keep asking about).
CORPUS_BLOCKS = 2000
#: Distinct-instruction range per block (large unrolled hot blocks).
BLOCK_DISTINCT = (24, 48)
#: Blocks per client message (one line-protocol request carries a group).
GROUP = 4
#: In-flight groups per client (the pipeline window).
WINDOW = 8


def serving_machine():
    """The bench machine: SKL-like ports over a 64-instruction ISA."""
    return build_skylake_like_machine(isa=build_small_isa(64, seed=0))


def serving_artifact(machine) -> MappingArtifact:
    """A serving artifact from the machine's ground-truth conjunctive dual."""
    stats = PalmedStats(
        machine_name=machine.name,
        num_instructions_total=len(machine.instructions),
        num_benchmarkable=len(machine.benchmarkable_instructions()),
        num_instructions_mapped=len(machine.benchmarkable_instructions()),
        num_basic_instructions=0,
        num_resources=0,
        num_benchmarks=0,
        num_equivalence_classes=0,
        num_low_ipc=0,
        lp1_iterations=0,
        benchmarking_time=0.0,
        lp_time=0.0,
        total_time=0.0,
    )
    return MappingArtifact(
        machine_name=machine.name,
        machine_fingerprint=machine_fingerprint(machine),
        mapping=machine.true_conjunctive(include_front_end=True),
        stats=stats,
    )


def build_corpus(machine, n_blocks: int = CORPUS_BLOCKS, seed: int = 1):
    rng = random.Random(seed)
    instructions = list(machine.benchmarkable_instructions())
    corpus = []
    for _ in range(n_blocks):
        distinct = rng.randint(*BLOCK_DISTINCT)
        chosen = rng.sample(instructions, min(distinct, len(instructions)))
        corpus.append(
            Microkernel(
                {inst: rng.choice([0.5, 1.0, 2.0, 3.0]) for inst in chosen}
            )
        )
    return corpus


def build_streams(corpus, concurrency: int, total_requests: int, seed: int = 7000):
    """Per-client request streams: lists of kernel groups, precomputed.

    Deterministic in (corpus, concurrency, total_requests, seed) and
    independent of timing, so every trial replays the exact same
    per-client sequence of groups.
    """
    per_client = total_requests // concurrency
    streams = []
    for index in range(concurrency):
        rng = random.Random(seed + index)
        groups = []
        submitted = 0
        while submitted < per_client:
            group = [
                corpus[rng.randrange(len(corpus))]
                for _ in range(min(GROUP, per_client - submitted))
            ]
            submitted += len(group)
            groups.append(group)
        streams.append(groups)
    return streams


def run_clients(service, fingerprint, streams, collect: bool = True):
    """Drive the precomputed streams concurrently; returns (elapsed_s, responses).

    One thread per stream, each pipelining up to ``WINDOW`` in-flight
    groups.  ``collect=False`` skips keeping (kernel, prediction) pairs
    (pure-throughput trials); responses are then per-client counts.
    """
    responses = [None] * len(streams)
    errors = []
    barrier = threading.Barrier(len(streams) + 1)

    def client(index, groups):
        results = []
        count = 0
        pending = deque()

        def drain_one():
            nonlocal count
            kernels, future = pending.popleft()
            answers = future.result(120.0)
            count += len(answers)
            if collect:
                results.extend(zip(kernels, answers))

        try:
            barrier.wait(timeout=60.0)
            for group in groups:
                pending.append((group, service.submit_many(fingerprint, group)))
                if len(pending) >= WINDOW:
                    drain_one()
            while pending:
                drain_one()
            responses[index] = results if collect else count
        except Exception as error:  # noqa: BLE001 - surfaced below
            errors.append((index, error))

    threads = [
        threading.Thread(target=client, args=(index, groups))
        for index, groups in enumerate(streams)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=60.0)
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    assert not errors, errors
    return elapsed, responses


def scalar_baseline(predictor, corpus, total_requests, seed=99, repeats=3):
    """Requests/sec of the per-request scalar loop on an identical stream."""
    rng = random.Random(seed)
    stream = [corpus[rng.randrange(len(corpus))] for _ in range(total_requests)]
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for kernel in stream:
            predictor.predict(kernel)
        best = min(best, time.perf_counter() - start)
    return total_requests / best


def bits(value) -> bytes:
    return struct.pack("<d", value)


def identical(left, right) -> bool:
    """Bitwise equality of two predictions."""
    if (left.ipc is None) != (right.ipc is None):
        return False
    if left.ipc is not None and bits(left.ipc) != bits(right.ipc):
        return False
    return bits(left.supported_fraction) == bits(right.supported_fraction)


def scalar_reference_table(predictor, corpus):
    """id(kernel) -> scalar prediction, for O(1) identity checks.

    Every request kernel is a corpus element, so 2000 scalar predictions
    cover any number of served responses.
    """
    return {id(kernel): predictor.predict(kernel) for kernel in corpus}
