"""The serve workloads: a closed loop against ``python -m repro serve`` processes.

``serve-binary``
    One standalone node serving the ground-truth SKL-like artifact over the
    negotiated binary wire (``BinaryServingClient``).  Every block comes
    from the hot corpus, so this is the highest-rate path: binary decode,
    batcher/router and ``MappingMatrix.predict_lowered``, with neither the
    kernel-lowering cache nor the solvers involved.
``serve-cluster-json``
    An in-process ``ClusterCoordinator`` (replicas=2, JSON node wire) in
    front of two ``serve --node`` processes syncing one source registry
    that holds the SKL-like and Zen-like artifacts.  Each block is drawn
    from the machine's hot corpus or generated fresh with equal odds, so
    the node's lowering cache sees both hits and misses.

Load: ``CONNECTIONS`` client threads in this process, each sending one
request of ``BLOCKS_PER_REQUEST`` blocks and waiting for the answer
(closed loop).  Each connection's stream is drawn before timing starts
from an RNG seeded by the workload seed; its length is ``--seconds`` at
the workload's nominal rate on the reference host, so every host does
the same work (and the node's memory and cache counters do not depend
on host speed).  After the timed region every served answer is compared
bitwise with offline ``PalmedPredictor`` on the same artifact.
"""

from __future__ import annotations

import math
import os
import random
import select
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

from common import (
    BLOCKS_PER_REQUEST,
    ROOT,
    CorrectnessError,
    latency_summary,
    median,
    process_peak_rss_mb,
    repro_env,
    shares,
)

CONNECTIONS = 2
SETUP_REPEATS = 3
#: serve-cluster-json: probability that a block repeats a hot-corpus block.
REPEAT_SHARE = 0.5
NODE_START_TIMEOUT_S = 60.0
NODE_STOP_TIMEOUT_S = 15.0
NODE_IDS = ("n0", "n1")
#: A run's fixed request volume must finish within this many ``--seconds``.
DEADLINE_FACTOR = 4.0


# -- inputs ------------------------------------------------------------------
class MachineInputs:
    """One served machine: artifact, hot corpus (as wire dicts) and reference."""

    def __init__(self, machine, seed: int) -> None:
        from repro.predictors import PalmedPredictor
        from serving_workload import build_corpus, serving_artifact

        self.machine = machine
        self.artifact = serving_artifact(machine)
        self.fingerprint = self.artifact.machine_fingerprint
        self.predictor = PalmedPredictor(self.artifact.mapping)
        self.corpus = build_corpus(machine, seed=seed)
        self.corpus_names = [
            {instruction.name: count for instruction, count in kernel.items()}
            for kernel in self.corpus
        ]
        self.by_name = {inst.name: inst for inst in machine.instructions}
        self.names = [inst.name for inst in machine.benchmarkable_instructions()]
        self._reference: Optional[Dict[int, object]] = None

    def reference(self, index: int):
        from serving_workload import scalar_reference_table

        if self._reference is None:
            self._reference = scalar_reference_table(self.predictor, self.corpus)
        return self._reference[id(self.corpus[index])]

    def fresh_block(self, rng: random.Random) -> Dict[str, float]:
        """A block shaped like the hot corpus (``serving_workload``), new content."""
        from serving_workload import BLOCK_DISTINCT

        distinct = rng.randint(*BLOCK_DISTINCT)
        chosen = rng.sample(self.names, min(distinct, len(self.names)))
        return {name: rng.choice([0.5, 1.0, 2.0, 3.0]) for name in chosen}

    def fresh_reference(self, block: Dict[str, float]):
        from repro import Microkernel

        kernel = Microkernel({self.by_name[name]: float(v) for name, v in block.items()})
        return self.predictor.predict(kernel)


def skl_inputs(seed: int) -> MachineInputs:
    from serving_workload import serving_machine

    return MachineInputs(serving_machine(), seed)


def zen_inputs(seed: int) -> MachineInputs:
    from repro import build_small_isa, build_zen_like_machine

    return MachineInputs(build_zen_like_machine(isa=build_small_isa(64, seed=0)), seed)


# -- node processes ------------------------------------------------------------
class Node:
    """One ``python -m repro serve`` process; always reaped by :meth:`stop`."""

    def __init__(self, args: List[str], log_path) -> None:
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *args],
            stdout=subprocess.PIPE,
            stderr=self._log,
            cwd=ROOT,
            env=repro_env(),
        )
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    def wait_listening(self) -> "Node":
        deadline = time.monotonic() + NODE_START_TIMEOUT_S
        buffer = b""
        fd = self.proc.stdout.fileno()
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.1)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    break
                buffer += chunk
                for line in buffer.split(b"\n")[:-1]:
                    if line.startswith(b"listening on "):
                        address = line[len(b"listening on "):].decode().strip()
                        host, _, port = address.rpartition(":")
                        self.host, self.port = host, int(port)
                        return self
            elif self.proc.poll() is not None:
                break
        raise RuntimeError(
            f"serve node did not come up; log:\n{self.log_path.read_text()[-2000:]}"
        )

    def stats(self) -> Dict[str, object]:
        from repro.serving import ServingClient

        with ServingClient(self.host, self.port) as client:
            return client.stats()["stats"]

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        from repro.serving import ServingClient

        if self.proc.poll() is None and self.port is not None:
            try:
                with ServingClient(self.host, self.port, timeout=5.0) as client:
                    client.shutdown()
            except (OSError, ValueError):
                pass
        try:
            self.proc.wait(timeout=NODE_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


# -- the closed loop -----------------------------------------------------------
#: One request: what the checker needs to know about it, and the wire blocks.
Request = Tuple[object, List[Dict[str, float]]]


class LoopResult:
    def __init__(self, connections: int) -> None:
        self.latencies: List[List[float]] = [[] for _ in range(connections)]
        self.responses: List[List[object]] = [[] for _ in range(connections)]
        self.failed = [0] * connections
        self.elapsed = 0.0

    @property
    def attempted(self) -> int:
        return sum(len(samples) for samples in self.latencies)

    @property
    def blocks_answered(self) -> int:
        return BLOCKS_PER_REQUEST * (self.attempted - sum(self.failed))


def closed_loop(
    send: Callable[[int, object, List[Dict[str, float]]], object],
    streams: List[List[Request]],
    deadline_s: float,
) -> LoopResult:
    """Each connection sends its stream's requests one at a time, waiting for each.

    ``send(connection, descriptor, blocks)`` returns the answers or raises;
    a raised request counts as failed with an infinite latency (it misses
    any latency limit).  ``deadline_s`` only bounds a pathologically slow
    run: the streams are a fixed volume of work.
    """
    connections = len(streams)
    result = LoopResult(connections)
    barrier = threading.Barrier(connections + 1)
    errors: List[BaseException] = []
    deadline = [0.0]

    def connection(index: int) -> None:
        latencies = result.latencies[index]
        responses = result.responses[index]
        clock = time.perf_counter
        try:
            barrier.wait(timeout=60.0)
            for descriptor, blocks in streams[index]:
                start = clock()
                if start >= deadline[0]:
                    return
                try:
                    answers = send(index, descriptor, blocks)
                except Exception:  # noqa: BLE001 - counted, never hidden
                    result.failed[index] += 1
                    latencies.append(math.inf)
                    responses.append(None)
                    continue
                latencies.append(clock() - start)
                responses.append(answers)
        except BaseException as error:  # noqa: BLE001 - re-raised below
            errors.append(error)

    threads = [
        threading.Thread(target=connection, args=(index,), daemon=True)
        for index in range(connections)
    ]
    for thread in threads:
        thread.start()
    start = time.perf_counter()
    deadline[0] = start + deadline_s
    barrier.wait(timeout=60.0)
    for thread in threads:
        thread.join(timeout=deadline_s + 120.0)
    result.elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a client connection did not finish")
    return result


def prediction_of(entry: Dict[str, object]):
    from repro.predictors import Prediction

    return Prediction(ipc=entry["ipc"], supported_fraction=entry["supported_fraction"])


def verify(
    loop: LoopResult,
    streams: List[List[Request]],
    check: Callable[[object, List[object]], None],
) -> None:
    """Check every answered request against its stream entry."""
    for stream, responses in zip(streams, loop.responses):
        for (descriptor, _), answers in zip(stream, responses):
            if answers is not None:
                check(descriptor, answers)


def serving_delta(before: Dict, after: Dict) -> Dict[str, float]:
    """Per-layer serving numbers from two ``stats`` snapshots."""

    def delta(key: str) -> float:
        return float(after.get(key, 0)) - float(before.get(key, 0))

    batches = delta("batches_flushed")
    completed = delta("requests_completed")
    hits = delta("lowering_cache_hits")
    misses = delta("lowering_cache_misses")
    return {
        "serving.batches": batches,
        "serving.occupancy_mean": delta("batch_occupancy_total") / batches if batches else 0.0,
        "serving.flush_build_s": delta("flush_build_ms_total") / 1e3,
        "serving.flush_predict_s": delta("flush_predict_ms_total") / 1e3,
        "serving.flush_resolve_s": delta("flush_resolve_ms_total") / 1e3,
        "serving.server_latency_mean_ms": (
            1e3 * delta("latency_total_s") / completed if completed else 0.0
        ),
        "serving.lowering_hits": hits,
        "serving.lowering_misses": misses,
        "serving.lowering_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serving.pending_peak": float(after.get("pending_peak", 0)),
        "serving.requests_refused": delta("requests_refused"),
    }


# -- one measured segment -------------------------------------------------------
def measure_segment(workload, scratch, label: str, telemetry: Optional[str],
                    repeats: int, seconds: float) -> Dict:
    """Set up ``repeats`` times (keeping the last session), load it, verify.

    The request volume is ``seconds`` at the workload's nominal rate on the
    reference host, so a run measures about ``seconds`` there and the same
    work everywhere.
    """
    # Streams are drawn before anything is timed: the timed loop only sends.
    per_connection = math.ceil(seconds * workload.nominal_requests_per_s / CONNECTIONS)
    began = time.process_time()
    streams = [
        workload.stream(index, per_connection) for index in range(CONNECTIONS)
    ]
    generator_cpu_s = time.process_time() - began
    setups: List[float] = []
    session = None
    try:
        for attempt in range(repeats):
            if session is not None:
                session.close()
                session = None
            directory = scratch / f"{label}-{attempt}"
            directory.mkdir()
            session = workload.open(directory, telemetry)
            setups.append(session.setup_s)
        before = session.stats()
        loop = closed_loop(session.send, streams, DEADLINE_FACTOR * seconds)
        after = session.stats()
        rss = sum(node.peak_rss_mb() for node in session.nodes)
        layers = session.layers(before, after)
        nodes = len(session.nodes)
    finally:
        if session is not None:
            session.close()
    verify(loop, streams, workload.check)
    return {
        "setups": setups,
        "loop": loop,
        "layers": layers,
        "rss": rss,
        "generator_cpu_s": generator_cpu_s,
        "nodes": nodes,
    }


# -- serve-binary --------------------------------------------------------------
class BinarySession:
    """Publish, spawn a standalone node, connect the binary clients."""

    def __init__(self, inputs: MachineInputs, directory, telemetry: Optional[str]) -> None:
        from repro.artifacts import ArtifactRegistry
        from repro.serving import BinaryServingClient
        from serving_workload import identical

        start = time.perf_counter()
        registry = directory / "registry"
        ArtifactRegistry(registry).save(inputs.artifact)
        args = ["--artifacts", str(registry), "--port", "0"]
        if telemetry:
            args += ["--telemetry", telemetry]
        node = Node(args, directory / "node.log")
        self.nodes = [node]
        self.clients = []
        try:
            node.wait_listening()
            self.clients = [
                BinaryServingClient(node.host, node.port, fingerprint=inputs.fingerprint)
                for _ in range(CONNECTIONS)
            ]
            first = self.clients[0].predict_blocks([inputs.corpus_names[0]])
            if not identical(first[0], inputs.reference(0)):
                raise CorrectnessError("first served answer differs from offline")
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def send(self, index: int, descriptor, blocks):
        return self.clients[index].predict_blocks(blocks)

    def stats(self) -> Dict:
        return self.nodes[0].stats()

    def layers(self, before: Dict, after: Dict) -> Dict[str, float]:
        return serving_delta(before, after)

    def close(self) -> None:
        # Connections first: the node's shutdown waits for its handlers.
        for client in self.clients:
            client.close()
        self.clients = []
        for node in self.nodes:
            node.stop()
        self.nodes = []


class BinaryWorkload:
    nominal_requests_per_s = 800.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.inputs = skl_inputs(seed)

    def open(self, directory, telemetry):
        return BinarySession(self.inputs, directory, telemetry)

    def stream(self, index: int, requests: int) -> List[Request]:
        rng = random.Random(f"serve-binary/{self.seed}/{index}")
        names = self.inputs.corpus_names
        stream: List[Request] = []
        for _ in range(requests):
            picks = [rng.randrange(len(names)) for _ in range(BLOCKS_PER_REQUEST)]
            stream.append((picks, [names[pick] for pick in picks]))
        return stream

    def check(self, picks, answers) -> None:
        from serving_workload import identical

        if len(answers) != len(picks):
            raise CorrectnessError(f"{len(answers)} answers for {len(picks)} blocks")
        for pick, answer in zip(picks, answers):
            if not identical(answer, self.inputs.reference(pick)):
                raise CorrectnessError(
                    f"served answer for corpus block {pick} differs from offline"
                )

    def params(self) -> Dict:
        return {"machine": self.inputs.machine.name, "corpus_blocks": len(self.inputs.corpus)}


def run_binary(seed: int, seconds: float, trace: bool, scratch) -> Dict:
    return summarize(BinaryWorkload(seed), seconds, trace, scratch)


# -- serve-cluster-json ----------------------------------------------------------
class ClusterSession:
    """Publish both artifacts, spawn two syncing nodes, front them in-process."""

    def __init__(self, machines: List[MachineInputs], directory, telemetry: Optional[str]) -> None:
        from repro.artifacts import ArtifactRegistry
        from repro.cluster import ClusterCoordinator, NodeSpec

        start = time.perf_counter()
        source = directory / "source"
        registry = ArtifactRegistry(source)
        for inputs in machines:
            registry.save(inputs.artifact)
        self.fingerprints = [inputs.fingerprint for inputs in machines]
        self.nodes: List[Node] = []
        self.coordinator = None
        try:
            for node_id in NODE_IDS:
                args = [
                    "--node", "--node-id", node_id,
                    "--sync-from", str(source),
                    "--artifacts", str(directory / f"replica-{node_id}"),
                    "--port", "0",
                ]
                if telemetry:
                    args += ["--telemetry", f"{telemetry}.{node_id}"]
                self.nodes.append(Node(args, directory / f"{node_id}.log"))
            for node in self.nodes:
                node.wait_listening()
            self.coordinator = ClusterCoordinator(
                [
                    NodeSpec(node_id, node.host, node.port)
                    for node_id, node in zip(NODE_IDS, self.nodes)
                ],
                replicas=2,
                node_wire="json",
            )
            self.coordinator.poll_health()
            for inputs in machines:
                response = self.coordinator.predict_blocks(
                    [inputs.corpus_names[0]], fingerprint=inputs.fingerprint
                )
                check_envelope(response, [inputs.reference(0)])
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - start

    def send(self, index: int, descriptor, blocks):
        machine, _ = descriptor
        response = self.coordinator.predict_blocks(
            blocks, fingerprint=self.fingerprints[machine]
        )
        if not response.get("ok"):
            raise RuntimeError(f"refused: {response.get('error')}")
        return response

    def stats(self) -> Dict:
        return self.coordinator.fleet_stats()

    def layers(self, before: Dict, after: Dict) -> Dict[str, float]:
        layers = serving_delta(before["fleet"], after["fleet"])
        ledger_before, ledger_after = before["cluster"], after["cluster"]
        routed = ledger_after["requests_routed"] - ledger_before["requests_routed"]
        for node_id in NODE_IDS:
            forwarded = ledger_after["forwards_by_node"].get(node_id, 0) - ledger_before[
                "forwards_by_node"
            ].get(node_id, 0)
            layers[f"cluster.forward_share.{node_id}"] = forwarded / routed if routed else 0.0
        for key in ("retries", "failovers"):
            layers[f"cluster.{key}"] = float(ledger_after[key] - ledger_before[key])
        return layers

    def close(self) -> None:
        if self.coordinator is not None:
            self.coordinator.close()
            self.coordinator = None
        for node in self.nodes:
            node.stop()
        self.nodes = []


def check_envelope(response: Dict, references: List[object]) -> None:
    from serving_workload import identical

    if not response.get("ok"):
        raise CorrectnessError(f"request refused: {response.get('error')}")
    answers = response["predictions"]
    if len(answers) != len(references):
        raise CorrectnessError(f"{len(answers)} answers for {len(references)} blocks")
    for answer, reference in zip(answers, references):
        if not identical(prediction_of(answer), reference):
            raise CorrectnessError(
                f"served answer {answer} differs from offline {reference}"
            )


class ClusterWorkload:
    nominal_requests_per_s = 280.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.machines = [skl_inputs(seed), zen_inputs(seed)]
        self.repeated = 0
        self.checked = 0

    def open(self, directory, telemetry):
        return ClusterSession(self.machines, directory, telemetry)

    def stream(self, index: int, requests: int) -> List[Request]:
        rng = random.Random(f"serve-cluster-json/{self.seed}/{index}")
        machines = self.machines
        stream: List[Request] = []
        for _ in range(requests):
            machine = rng.randrange(len(machines))
            inputs = machines[machine]
            slots: List[object] = []
            blocks: List[Dict[str, float]] = []
            for _ in range(BLOCKS_PER_REQUEST):
                if rng.random() < REPEAT_SHARE:
                    pick = rng.randrange(len(inputs.corpus))
                    slots.append(pick)
                    blocks.append(inputs.corpus_names[pick])
                else:
                    block = inputs.fresh_block(rng)
                    slots.append(block)
                    blocks.append(block)
            stream.append(((machine, slots), blocks))
        return stream

    def check(self, descriptor, response) -> None:
        machine, slots = descriptor
        inputs = self.machines[machine]
        references = []
        for slot in slots:
            if isinstance(slot, int):
                self.repeated += 1
                references.append(inputs.reference(slot))
            else:
                references.append(inputs.fresh_reference(slot))
        self.checked += len(slots)
        check_envelope(response, references)

    def params(self) -> Dict:
        return {
            "machines": [inputs.machine.name for inputs in self.machines],
            "corpus_blocks": len(self.machines[0].corpus),
            "repeat_share_target": REPEAT_SHARE,
            "repeat_share_measured": self.repeated / self.checked if self.checked else 0.0,
        }


def run_cluster(seed: int, seconds: float, trace: bool, scratch) -> Dict:
    report = summarize(ClusterWorkload(seed), seconds, trace, scratch)
    if trace:
        # The coordinator runs in this process: the client round trip is the
        # time in predict_blocks, so the residual over node latency is the hop.
        report["layers"]["cluster.hop_ms"] = report["layers"]["frontend.residual_ms"]
    return report


# -- shared reporting -------------------------------------------------------------
def summarize(workload, seconds: float, trace: bool, scratch) -> Dict:
    """Run the measured segment(s) and turn them into metrics and layers.

    The plain run is one segment with ``SETUP_REPEATS`` set-ups.  The traced
    run splits ``seconds`` between an untraced and a traced segment (node
    ``--telemetry`` on) to measure the telemetry overhead on blocks/s.
    """
    if trace:
        plain = measure_segment(workload, scratch, "plain", None, 1, seconds / 2)
        measured = measure_segment(
            workload, scratch, "traced", str(scratch / "telemetry.sqlite"), 1, seconds / 2
        )
    else:
        measured = measure_segment(workload, scratch, "plain", None, SETUP_REPEATS, seconds)
    loop: LoopResult = measured["loop"]
    blocks_per_s = loop.blocks_answered / loop.elapsed
    metrics = {
        "setup_s": median(measured["setups"]),
        "blocks_per_s": blocks_per_s,
        "peak_rss_mb": measured["rss"],
        "error_rate": sum(loop.failed) / loop.attempted,
    }
    layers: Dict[str, float] = {}
    if not trace:
        samples = [value for per_connection in loop.latencies for value in per_connection]
        metrics.update(latency_summary(samples))
        if math.isinf(metrics["latency_p99_ms"]):
            raise CorrectnessError(
                f"{sum(loop.failed)} of {loop.attempted} requests failed; "
                f"p99 is unbounded"
            )
    else:
        layers = measured["layers"]
        answered = [value for c in loop.latencies for value in c if not math.isinf(value)]
        rtt_ms = 1e3 * sum(answered) / len(answered)
        layers["frontend.residual_ms"] = rtt_ms - layers["serving.server_latency_mean_ms"]
        layers["frontend.residual_share"] = layers["frontend.residual_ms"] / rtt_ms
        layers["client.generator_cpu_s"] = measured["generator_cpu_s"]
        # Flush phases as the nodes' busy fraction; drawing against the run.
        flush = {key: value for key, value in layers.items() if key.startswith("serving.flush_")}
        layers.update(shares(flush, loop.elapsed * measured["nodes"]))
        layers.update(
            shares({"client.generator_cpu_s": measured["generator_cpu_s"]}, loop.elapsed)
        )
        plain_loop: LoopResult = plain["loop"]
        plain_rate = plain_loop.blocks_answered / plain_loop.elapsed
        layers["telemetry.overhead_pct"] = 100.0 * (1.0 - blocks_per_s / plain_rate)
    return {
        "metrics": metrics,
        "layers": layers,
        "attempted": loop.attempted,
        "failed": sum(loop.failed),
        "params": {
            **workload.params(),
            "connections": CONNECTIONS,
            "blocks_per_request": BLOCKS_PER_REQUEST,
            "setup_repeats": len(measured["setups"]),
            "requests": loop.attempted,
            "measured_s": loop.elapsed,
            "generator_cpu_s": measured["generator_cpu_s"],
        },
    }
