"""The ``characterize`` workload: cold characterization, publish, evaluate, query.

One run is a sequence of rounds, each pinned to one CPU
(:func:`common.pinned_to_cpu`).  The first round runs in this process;
its mapping is the one published and evaluated.  Every later round runs
on all CPUs of the process at once, one forked child per CPU
(:func:`common.race`): on a shared host each CPU is slowed by other
tenants in phases of seconds, independently of the others, and a run
that samples every CPU the whole time is not decided by one of them.
Rounds repeat until they have taken ``--seconds`` of wall clock, and
at least ``MIN_ROUNDS`` times (with two CPUs, eleven characterizations:
about 30 s).  A round is:

1. **setup** — until ``SETUPS`` have been timed, a fresh interpreter
   imports ``repro`` and builds the SKL-like machine and its measurement
   backend, whose fingerprint must match this process's; ``setup_s`` is
   the median.
2. **characterize** — cold ``Palmed.run()`` on a fresh backend;
   ``characterize_s`` is the fastest repeat, timeit's rule: the work is
   deterministic, so a slower repeat measures contention from outside
   the process, not the program.  Every repeat must end with zero
   time-limited solves and the same mapping digest.
3. **publish** — first round only: ``ArtifactRegistry.save`` of the
   mapping, loaded back.
4. **evaluate** — first round only: ``evaluate_predictors`` of the
   published mapping on a seeded SPEC-like suite (the seed's only
   input): accuracy, and blocks evaluated per second over cold native
   measurements.
5. **query** — a burst of ``BURST_REQUESTS`` requests of
   ``BLOCKS_PER_REQUEST`` suite blocks answered by
   ``PalmedPredictor.predict`` on the published mapping (the offline
   caller's latency, same request shape as the serve workloads), each
   answer bitwise-checked against the harness's batched prediction.
   The requests cycle through the suite, ``SUITE_BLOCKS //
   BLOCKS_PER_REQUEST`` distinct ones, each sent many times per burst and
   in every round, on every CPU.  A request's latency is the fastest
   answer to the same request over the run, the same rule as
   ``characterize_s``: the percentiles describe what the predictor costs
   across the suite's requests, not how often another tenant stalled
   the host (about 1% of single answers, which is what p99 would
   otherwise report).

The traced run keeps every round in this process (the probes patch it),
alternating untraced and traced characterizations, and has no query
phase (it reports no latency).

``blocks_per_s`` counts the suite's blocks answered per second from a
cold start: the caller waits for the characterization, the publish and
the evaluation.

The machine is fixed rather than drawn from the seed: a different ISA
is a different MILP, and the solve time of one size says nothing about
another.  At this size every MILP terminates by optimality, so the
mapping does not depend on host speed.  ``n_basic_cap=6`` (about 4 s a
repeat) rather than 7 (about 16 s) buys repeats within the run budget.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional

from common import (
    BLOCKS_PER_REQUEST,
    ROOT,
    CorrectnessError,
    latency_summary,
    median,
    own_peak_rss_mb,
    pinned_to_cpu,
    race,
    repro_env,
    shares,
)

#: The characterized machine and the PALMED configuration.
ISA_SIZE = 32
ISA_SEED = 1
CONFIG = dict(
    n_basic=None,
    n_basic_cap=6,
    max_resources=10,
    lp1_max_iterations=1,
    lp2_mode="exact",
)
#: Fig. 4b suite size, and how often each phase is repeated per run.
SUITE_BLOCKS = 2000
SETUPS = 5
MIN_ROUNDS = 6
EVALUATE_REPEATS = 3
#: Requests per burst; p99 needs ``common.MIN_LATENCY_SAMPLES`` of them.
BURST_REQUESTS = 1000
WARMUP_REQUESTS = 100
#: The stage times must account for the traced characterization within this share.
ATTRIBUTION_TOLERANCE = 0.05
SETUP_PROGRAM = (
    "from repro import PortModelBackend, build_skylake_like_machine, build_small_isa\n"
    f"machine = build_skylake_like_machine(isa=build_small_isa({ISA_SIZE}, seed={ISA_SEED}))\n"
    "print(PortModelBackend(machine).fingerprint())\n"
)


def build_machine():
    from repro import PortModelBackend, build_skylake_like_machine, build_small_isa

    machine = build_skylake_like_machine(isa=build_small_isa(ISA_SIZE, seed=ISA_SEED))
    return machine, PortModelBackend(machine)


def timed_setup(expected_fingerprint: str) -> float:
    """One cold start in a fresh interpreter, up to a correct backend."""
    start = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, "-c", SETUP_PROGRAM],
        cwd=ROOT,
        env=repro_env(),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    elapsed = time.perf_counter() - start
    if completed.stdout.strip() != expected_fingerprint:
        raise CorrectnessError("a fresh interpreter built a different backend")
    return elapsed


def mapping_digest(mapping) -> str:
    payload = json.dumps(mapping.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def characterize_once(telemetry: Optional[str] = None):
    """One cold ``Palmed.run`` on a fresh machine/backend; (seconds, result)."""
    from repro.palmed import Palmed, PalmedConfig

    machine, backend = build_machine()
    config = PalmedConfig(**CONFIG, telemetry=telemetry)
    palmed = Palmed(backend, machine.benchmarkable_instructions(), config)
    start = time.perf_counter()
    result = palmed.run()
    return time.perf_counter() - start, result


def check_characterization(result, digests: List[str]) -> None:
    """The characterize gate: no limit solve, one digest across repeats."""
    if result.stats.lp_limit_solves != 0:
        raise CorrectnessError(
            f"{result.stats.lp_limit_solves} solve(s) hit their limit; the "
            f"mapping depends on host speed"
        )
    digests.append(mapping_digest(result.mapping))
    if len(set(digests)) != 1:
        raise CorrectnessError(f"mapping digest changed across repeats: {digests}")


def publish(result, machine, directory):
    """Save the artifact and load it back: (seconds, loaded artifact)."""
    from repro.artifacts import ArtifactRegistry, MappingArtifact

    registry = ArtifactRegistry(directory)
    artifact = MappingArtifact.from_result(result, machine)
    start = time.perf_counter()
    registry.save(artifact)
    elapsed = time.perf_counter() - start
    loaded = registry.load(artifact.machine_fingerprint)
    if mapping_digest(loaded.mapping) != mapping_digest(result.mapping):
        raise CorrectnessError("published artifact does not round-trip")
    return elapsed, loaded


def evaluate(predictor, suite):
    """``evaluate_predictors`` on fresh (cold) backends; (median s, result)."""
    from repro.evaluation import evaluate_predictors

    times, evaluation = [], None
    for _ in range(EVALUATE_REPEATS):
        _, backend = build_machine()
        start = time.perf_counter()
        evaluation = evaluate_predictors(backend, suite, [predictor])
        times.append(time.perf_counter() - start)
    return median(times), evaluation


def query_latencies(predictor, evaluation, requests: int) -> List[float]:
    """Round trips of suite-block requests, each answer checked bitwise.

    ``WARMUP_REQUESTS`` untimed requests go first: after a
    characterization the predictor's code and data are out of the caches.
    The objects alive before the burst (this benchmark's characterization
    results among them) are frozen out of the garbage collector's view, so
    that its collections cost what they would cost a caller holding only
    the predictor.
    """
    from serving_workload import identical

    records = evaluation.records
    starts = range(0, len(records) - BLOCKS_PER_REQUEST + 1, BLOCKS_PER_REQUEST)
    samples: List[float] = []
    clock = time.perf_counter
    gc.collect()
    gc.freeze()
    try:
        for number in range(-WARMUP_REQUESTS, requests):
            first = starts[number % len(starts)]
            request = records[first:first + BLOCKS_PER_REQUEST]
            start = clock()
            answers = [predictor.predict(record.block.kernel) for record in request]
            if number >= 0:
                samples.append(clock() - start)
            for record, answer in zip(request, answers):
                if not identical(answer, record.predictions[predictor.name]):
                    raise CorrectnessError(
                        f"scalar and batched predictions differ on "
                        f"{record.block.kernel.notation()}"
                    )
    finally:
        gc.unfreeze()
    return samples


def timed_round(cpu: int, fingerprint: str, with_setup: bool, predictor, evaluation,
                digests: List[str]) -> Dict:
    """One untraced round pinned to ``cpu``: set-up, characterization, query burst."""
    with pinned_to_cpu(cpu):
        setup_s = timed_setup(fingerprint) if with_setup else None
        elapsed, result = characterize_once()
        check_characterization(result, digests)
        burst = query_latencies(predictor, evaluation, BURST_REQUESTS)
    return {"setup_s": setup_s, "characterize_s": elapsed, "digest": digests[-1], "burst": burst}


def request_latencies(bursts: List[List[float]], distinct: int) -> List[float]:
    """Each request's latency: the fastest answer to the same request over all bursts."""
    fastest = [math.inf] * distinct
    for burst in bursts:
        for number, seconds in enumerate(burst):
            fastest[number % distinct] = min(fastest[number % distinct], seconds)
    return [fastest[number % distinct] for number in range(len(bursts[0]))]


def run(seed: int, seconds: float, trace: bool, scratch) -> Dict:
    from repro import build_small_isa
    from repro.predictors import PalmedPredictor
    from repro.workloads import generate_spec_like_suite

    from layers import STAGES, LayerProbe

    machine, backend = build_machine()
    fingerprint = backend.fingerprint()
    suite = generate_spec_like_suite(
        build_small_isa(ISA_SIZE, seed=ISA_SEED), n_blocks=SUITE_BLOCKS, seed=seed
    )

    probe = LayerProbe()
    digests: List[str] = []
    setups: List[float] = []
    plain: List[float] = []
    traced: List[float] = []
    bursts: List[List[float]] = []
    began = time.perf_counter()
    with pinned_to_cpu(0):
        setups.append(timed_setup(fingerprint))
        elapsed, result = characterize_once()
    plain.append(elapsed)
    check_characterization(result, digests)
    save_s, artifact = publish(result, machine, scratch / "registry")
    predictor = PalmedPredictor(artifact.mapping)
    evaluate_s, evaluation = evaluate(predictor, suite)
    rounds = 1

    def more() -> bool:
        return rounds < MIN_ROUNDS or time.perf_counter() - began < seconds

    if trace:
        while more():
            tracing = rounds % 2 == 1
            with pinned_to_cpu(len(traced) if tracing else len(plain)):
                if tracing:
                    database = str(scratch / f"telemetry-{rounds}.sqlite")
                    with probe.installed():
                        elapsed, result = characterize_once(telemetry=database)
                    traced.append(elapsed)
                else:
                    elapsed, result = characterize_once()
                    plain.append(elapsed)
            check_characterization(result, digests)
            rounds += 1
    else:
        with pinned_to_cpu(0):
            bursts.append(query_latencies(predictor, evaluation, BURST_REQUESTS))
        lanes = len(os.sched_getaffinity(0))
        while more():
            with_setup = len(setups) < SETUPS
            for outcome in race(
                lambda cpu: timed_round(
                    cpu, fingerprint, with_setup, predictor, evaluation, digests
                ),
                lanes,
            ):
                if outcome["setup_s"] is not None:
                    setups.append(outcome["setup_s"])
                plain.append(outcome["characterize_s"])
                digests.append(outcome["digest"])
                bursts.append(outcome["burst"])
            rounds += 1
    accuracy = evaluation.metrics(predictor.name)
    # The distinct requests query_latencies cycles through.
    distinct = len(evaluation.records) // BLOCKS_PER_REQUEST

    characterize_s = min(plain)
    answered = len(evaluation.records)
    cold_start_s = characterize_s + save_s + evaluate_s
    metrics = {
        "setup_s": median(setups),
        "characterize_s": characterize_s,
        "blocks_per_s": answered / cold_start_s,
        "evaluate_blocks_per_s": answered / evaluate_s,
        **(latency_summary(request_latencies(bursts, distinct)) if not trace else {}),
        "peak_rss_mb": own_peak_rss_mb(),
        "rms_error_pct": 100.0 * accuracy.rms_error,
        "kendall_tau": accuracy.kendall_tau,
        "error_rate": 0.0,
    }
    layers: Dict[str, float] = {}
    if trace:
        # The probes saw every traced repeat; report them per characterization.
        traced_s = sum(traced) / len(traced)
        layers = {key: value / len(traced) for key, value in probe.metrics().items()}
        attributed = sum(layers[f"pipeline.{stage}_s"] for stage in STAGES)
        if abs(attributed - traced_s) > ATTRIBUTION_TOLERANCE * traced_s:
            raise CorrectnessError(
                f"stage times sum to {attributed:.3f} s but the traced "
                f"characterization took {traced_s:.3f} s"
            )
        layers.update(shares(layers, traced_s))
        stats = result.stats
        layers.update(
            {
                "solvers.warm_start_hits": stats.lp_warm_start_hits,
                "solvers.limit_solves": stats.lp_limit_solves,
                "evaluation.evaluate_s": evaluate_s,
                "evaluation.rms_error_pct": metrics["rms_error_pct"],
                "evaluation.kendall_tau": metrics["kendall_tau"],
                "artifacts.save_s": save_s,
                "pipeline.attributed_share": attributed / traced_s,
                "telemetry.overhead_pct": 100.0 * (traced_s * len(plain) / sum(plain) - 1.0),
            }
        )
        layers.update(shares(
            {"evaluation.evaluate_s": evaluate_s, "artifacts.save_s": save_s}, cold_start_s
        ))
    return {
        "metrics": metrics,
        "layers": layers,
        "attempted": len(plain) + len(traced) + sum(len(burst) for burst in bursts),
        "failed": 0,
        "params": {
            "isa_size": ISA_SIZE,
            "isa_seed": ISA_SEED,
            "config": CONFIG,
            "suite_blocks": SUITE_BLOCKS,
            "characterizations": len(plain) + len(traced),
            "rounds": rounds,
            "characterize_s_each": plain + traced,
            "mapping_digest": digests[0],
            "lp_solves": result.stats.lp_solves,
            "blocks_evaluated": len(evaluation.records),
            "queries": sum(len(burst) for burst in bursts),
            "burst_latencies_ms": [latency_summary(burst) for burst in bursts],
        },
    }
