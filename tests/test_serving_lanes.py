"""Regression suite for the concurrency-32 serving fix surface.

Pins down, differentially:

* overload recovery — a burst refused at the admission bound must not
  poison the lane: capacity comes back and answers stay bitwise-correct;
* the negotiated binary framing — bitwise-identical to the JSON line
  protocol for the same blocks, with typed refusals for malformed frames;

plus the admission-control leak regressions: a failed flush, a
short-results process function, or a client that vanishes mid-batch must
all return their kernels to the admission budget, and the TCP frontend
must reap handler threads of abruptly-disconnected clients.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time

import pytest

from repro.artifacts import ArtifactRegistry
from repro.measure.fingerprint import machine_fingerprint
from repro.predictors import PalmedPredictor
from repro.serving import (
    BinaryServingClient,
    InvalidRequestError,
    LineProtocolServer,
    MicroBatcher,
    PredictionService,
    ServiceOverloadedError,
    ServingClient,
    ServingError,
    handle_line,
)

from test_serving import (
    assert_same_prediction,
    bits,
    make_artifact,
    random_kernels,
)


@pytest.fixture(scope="module")
def lanes_registry(tmp_path_factory, toy_machine, small_skl_machine):
    root = tmp_path_factory.mktemp("lanes-registry")
    registry = ArtifactRegistry(root)
    registry.save(make_artifact(toy_machine))
    registry.save(make_artifact(small_skl_machine))
    return root


@pytest.fixture(scope="module")
def lane_reference(toy_machine, small_skl_machine):
    """Scalar per-request reference, one per machine fingerprint."""
    return {
        machine_fingerprint(machine): PalmedPredictor(
            machine.true_conjunctive(include_front_end=True)
        )
        for machine in (toy_machine, small_skl_machine)
    }


class TestOverloadRecovery:
    def test_overload_then_recover(
        self, lanes_registry, toy_machine, lane_reference
    ):
        """A refused burst must not poison the lane: capacity comes back."""
        service = PredictionService(lanes_registry, max_pending=8)
        fingerprint = machine_fingerprint(toy_machine)
        kernels = random_kernels(
            toy_machine.benchmarkable_instructions(), 12, seed=5
        )
        try:
            # Not started: submissions queue until the admission bound trips.
            admitted = []
            with pytest.raises(ServiceOverloadedError):
                for kernel in kernels:
                    admitted.append(service.submit(fingerprint, kernel))
            assert len(admitted) == 8
            service.start()
            for future in admitted:
                assert future.result(timeout=30.0).ipc is not None or True
            # Drained: the full budget is available again and answers are
            # still bitwise-correct.
            reference = lane_reference[fingerprint]
            futures = [
                service.submit(fingerprint, kernel) for kernel in kernels[:8]
            ]
            for kernel, future in zip(kernels, futures):
                assert_same_prediction(
                    future.result(timeout=30.0),
                    reference.predict(kernel),
                    context=str(kernel),
                )
        finally:
            service.stop()


def _tcp_server(service):
    server = LineProtocolServer(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


class TestBinaryFraming:
    def test_binary_bitwise_equal_json_and_reference(
        self, lanes_registry, toy_machine, lane_reference
    ):
        service = PredictionService(lanes_registry).start()
        server, _ = _tcp_server(service)
        host, port = server.address
        try:
            kernels = random_kernels(
                toy_machine.benchmarkable_instructions(), 32, seed=17
            )
            blocks = [
                {inst.name: count for inst, count in kernel.items()}
                for kernel in kernels
            ]
            with ServingClient(host, port) as json_client, BinaryServingClient(
                host, port, machine=toy_machine.name
            ) as binary_client:
                json_response = json_client.predict_blocks(
                    blocks, machine=toy_machine.name
                )
                assert json_response["ok"], json_response
                binary_predictions = binary_client.predict_blocks(blocks)
                reference = lane_reference[binary_client.fingerprint]
                for kernel, json_prediction, binary_prediction in zip(
                    kernels, json_response["predictions"], binary_predictions
                ):
                    expected = reference.predict(kernel)
                    assert_same_prediction(
                        binary_prediction, expected, context=str(kernel)
                    )
                    if expected.ipc is None:
                        assert json_prediction["ipc"] is None
                    else:
                        assert bits(json_prediction["ipc"]) == bits(expected.ipc)
        finally:
            server.shutdown()
            server.server_close()
            service.stop()

    def test_unknown_mnemonics_degrade_identically(
        self, lanes_registry, toy_machine
    ):
        """Unknown + duplicate mnemonics fold the same way on both wires."""
        service = PredictionService(lanes_registry).start()
        server, _ = _tcp_server(service)
        host, port = server.address
        known = sorted(
            inst.name
            for inst in toy_machine.benchmarkable_instructions()
        )
        blocks = [
            {"TOTALLY_BOGUS": 2.0, known[0]: 1.5, "ANOTHER_FAKE": 0.5},
            {known[1]: 1.0, known[0]: 2.0},  # out-of-sorted-order keys
            {"ONLY_UNKNOWN": 4.0},
        ]
        try:
            with ServingClient(host, port) as json_client, BinaryServingClient(
                host, port, machine=toy_machine.name
            ) as binary_client:
                json_response = json_client.predict_blocks(
                    blocks, machine=toy_machine.name
                )
                assert json_response["ok"], json_response
                binary_predictions = binary_client.predict_blocks(blocks)
                for json_prediction, binary_prediction in zip(
                    json_response["predictions"], binary_predictions
                ):
                    assert (json_prediction["ipc"] is None) == (
                        binary_prediction.ipc is None
                    )
                    if json_prediction["ipc"] is not None:
                        assert bits(json_prediction["ipc"]) == bits(
                            binary_prediction.ipc
                        )
                    assert bits(json_prediction["supported_fraction"]) == bits(
                        binary_prediction.supported_fraction
                    )
        finally:
            server.shutdown()
            server.server_close()
            service.stop()

    def test_binary_concurrent_clients_bitwise(
        self, lanes_registry, toy_machine, small_skl_machine, lane_reference
    ):
        service = PredictionService(lanes_registry).start()
        server, _ = _tcp_server(service)
        host, port = server.address
        machines = (toy_machine, small_skl_machine)
        try:
            errors = []

            def client(machine, seed):
                try:
                    kernels = random_kernels(
                        machine.benchmarkable_instructions(), 12, seed=seed
                    )
                    with BinaryServingClient(
                        host, port, machine=machine.name
                    ) as link:
                        reference = lane_reference[link.fingerprint]
                        for step, kernel in enumerate(kernels):
                            blocks = [
                                {inst.name: c for inst, c in kernel.items()}
                            ]
                            (prediction,) = link.predict_blocks(
                                blocks, request_id=step
                            )
                            assert_same_prediction(
                                prediction,
                                reference.predict(kernel),
                                context=str(kernel),
                            )
                except Exception as error:  # noqa: BLE001 - reported below
                    errors.append(error)

            threads = [
                threading.Thread(target=client, args=(machine, 40 + index))
                for index, machine in enumerate(machines)
                for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors, errors
        finally:
            server.shutdown()
            server.server_close()
            service.stop()

    def test_malformed_frames_refused_typed_connection_survives(
        self, lanes_registry, toy_machine
    ):
        service = PredictionService(lanes_registry).start()
        server, _ = _tcp_server(service)
        host, port = server.address
        magic = 0x51_4C_41_50
        try:
            with BinaryServingClient(
                host, port, machine=toy_machine.name
            ) as link:
                known = sorted(link._dense)
                good_block = {known[0]: 2.0}

                def raw_frame(kernels, entries, sizes, counts, lengths, ids):
                    payload = (
                        struct.pack("<IIII", magic, 1, kernels, entries)
                        + struct.pack(f"<{len(sizes)}d", *sizes)
                        + struct.pack(f"<{len(counts)}d", *counts)
                        + struct.pack(f"<{len(lengths)}I", *lengths)
                        + struct.pack(f"<{len(ids)}I", *ids)
                    )
                    return struct.pack("<I", len(payload)) + payload

                bad_frames = [
                    # Multiplicity 0.
                    raw_frame(1, 1, [1.0], [0.0], [1], [0]),
                    # Lengths do not sum to the entry count.
                    raw_frame(1, 2, [2.0], [1.0, 1.0], [1], [0, 1]),
                    # Out-of-table dense id.
                    raw_frame(1, 1, [1.0], [1.0], [1], [len(known) + 7]),
                    # Ids not strictly ascending within the kernel.
                    raw_frame(1, 2, [2.0], [1.0, 1.0], [2], [1, 1]),
                    # Zero kernels.
                    raw_frame(0, 0, [], [], [], []),
                ]
                for frame in bad_frames:
                    link._socket.sendall(frame)
                    with pytest.raises(ServingError):
                        link._read_response()
                # Typed refusals never poison the connection.
                (prediction,) = link.predict_blocks([good_block])
                assert prediction.supported_fraction == 1.0
        finally:
            server.shutdown()
            server.server_close()
            service.stop()

    def test_stdio_refuses_binary_negotiation(self, lanes_registry, toy_machine):
        service = PredictionService(lanes_registry).start()
        try:
            hello = json.dumps(
                {"op": "hello", "format": "binary", "machine": toy_machine.name}
            )
            response, shutdown = handle_line(service, hello)
            assert not shutdown
            assert not response["ok"]
            assert response["error"]["type"] == "InvalidRequestError"
            # The json echo stays available everywhere.
            response, _ = handle_line(
                service, json.dumps({"op": "hello", "format": "json"})
            )
            assert response["ok"] and response["format"] == "json"
        finally:
            service.stop()

    def test_binary_hello_requires_a_machine(self, lanes_registry):
        service = PredictionService(lanes_registry).start()
        try:
            response, _ = handle_line(
                service,
                json.dumps({"op": "hello", "format": "binary"}),
                transport_binary=True,
            )
            assert not response["ok"]
            assert response["error"]["type"] == "InvalidRequestError"
        finally:
            service.stop()


class TestAdmissionLeaks:
    def test_failing_flush_releases_admission_capacity(self):
        state = {"fail": True}

        def process(payloads):
            if state["fail"]:
                raise RuntimeError("flush exploded")
            return [payload * 10 for payload in payloads]

        batcher = MicroBatcher(process, max_pending=4).start()
        try:
            futures = [batcher.submit(i) for i in range(4)]
            for future in futures:
                with pytest.raises(RuntimeError, match="flush exploded"):
                    future.result(timeout=10.0)
            assert batcher.pending == 0
            # The released budget admits and serves new work.
            state["fail"] = False
            assert batcher.submit(7).result(timeout=10.0) == 70
        finally:
            batcher.close()

    def test_short_results_release_admission_capacity(self):
        state = {"short": True}

        def process(payloads):
            results = [payload for payload in payloads]
            return results[:-1] if state["short"] else results

        batcher = MicroBatcher(process, max_pending=4).start()
        try:
            future = batcher.submit_many([1, 2, 3])
            with pytest.raises(ServingError, match="2 results for 3"):
                future.result(timeout=10.0)
            assert batcher.pending == 0
            state["short"] = False
            assert batcher.submit_many([4, 5]).result(timeout=10.0) == [4, 5]
        finally:
            batcher.close()

    def test_cancelled_mid_batch_releases_admission_capacity(self):
        """A client that vanishes (cancelled future) frees its kernels."""
        def process(payloads):
            return list(payloads)

        batcher = MicroBatcher(process, max_pending=4)
        try:
            doomed = batcher.submit(1)
            kept = batcher.submit(2)
            assert doomed.cancel()  # not started yet: cancellable
            batcher.start()
            assert kept.result(timeout=10.0) == 2
            deadline = time.monotonic() + 10.0
            while batcher.pending and time.monotonic() < deadline:
                time.sleep(0.01)
            assert batcher.pending == 0
            # Full budget back: a burst the size of the bound is admitted.
            futures = [batcher.submit(i) for i in range(4)]
            assert [f.result(timeout=10.0) for f in futures] == [0, 1, 2, 3]
        finally:
            batcher.close()

    def test_abrupt_disconnect_reaps_handler_threads(
        self, lanes_registry, toy_machine
    ):
        service = PredictionService(lanes_registry).start()
        server, _ = _tcp_server(service)
        host, port = server.address
        try:
            rude = []
            for index in range(3):
                link = socket.create_connection((host, port), timeout=10.0)
                if index == 0:
                    # Half a line, never terminated.
                    link.sendall(b'{"op": "predict", "machi')
                elif index == 1:
                    # A binary hello followed by half a frame header.
                    link.sendall(
                        (
                            json.dumps(
                                {
                                    "op": "hello",
                                    "format": "binary",
                                    "machine": toy_machine.name,
                                }
                            )
                            + "\n"
                        ).encode("utf-8")
                    )
                    link.recv(65536)
                    link.sendall(b"\x10\x00")
                rude.append(link)
            deadline = time.monotonic() + 10.0
            while server.active_connections < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.active_connections == 3
            for link in rude:
                # Hard reset, not a graceful FIN: SO_LINGER with zero timeout.
                link.setsockopt(
                    socket.SOL_SOCKET,
                    socket.SO_LINGER,
                    struct.pack("ii", 1, 0),
                )
                link.close()
            while server.active_connections and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.active_connections == 0
            # The server is still healthy for well-behaved clients.
            with ServingClient(host, port) as polite:
                response = polite.predict_blocks(
                    [{sorted(
                        inst.name
                        for inst in toy_machine.benchmarkable_instructions()
                    )[0]: 1.0}],
                    machine=toy_machine.name,
                )
                assert response["ok"], response
        finally:
            server.shutdown()
            server.server_close()
            service.stop()
