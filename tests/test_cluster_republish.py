"""Zero-downtime republish: hot mapping swaps under live traffic.

The cutover contract (:meth:`repro.serving.service.PredictionService.
republish` and the cluster plumbing around it):

* publishing a new artifact version while clients stream costs **zero
  failed requests** — in-flight work drains on the old compiled mapping,
  later flushes serve the new one;
* the ``version`` label every predict envelope carries is **monotone per
  connection** across the swap (the hot-cache replacement is atomic);
* a label is a *routing-time* observation: the answer is bitwise-equal
  to the labeled version or to a newer one (a request labeled v1 whose
  flush ran after the swap legitimately answers v2) — and once a
  connection sees a v2 label, everything after answers v2 exactly;
* the swap is visible in the stats ledger (``mapping_republishes``, the
  ``republish_pending_peak`` drain watermark);
* a republish that fails validation (a rotted file) keeps v1 serving —
  degradation is loud, never an outage;
* a fleet node's republish watcher propagates a source-registry publish
  to its replica and hot-swaps without operator action.
"""

from __future__ import annotations

import struct
import threading
import time

import pytest

from repro.artifacts import ArtifactRegistry
from repro.cluster import ClusterNode
from repro.serving import PredictionService, ServingClient

from test_serving import make_artifact, random_kernels


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def prediction_key(entry) -> tuple:
    """A bitwise-comparable key for one wire prediction dict."""
    ipc = entry["ipc"]
    return (
        None if ipc is None else bits(ipc),
        bits(entry["supported_fraction"]),
    )


def reference_keys(tmp_path, machine, artifact, blocks, label):
    """Offline per-block prediction keys for one artifact version."""
    root = tmp_path / f"reference-{label}"
    ArtifactRegistry(root).save(artifact)
    with PredictionService(ArtifactRegistry(root, readonly=True)) as service:
        fingerprint = service.resolve(machine.name)
        compiled = service.compiled(fingerprint)
        keys = []
        for block in blocks:
            import repro.serving.frontend as frontend

            kernels = frontend._parse_blocks(compiled, [block])
            (prediction,) = service.predict_many(fingerprint, kernels)
            keys.append(
                (
                    None if prediction.ipc is None else bits(prediction.ipc),
                    bits(prediction.supported_fraction),
                )
            )
    return compiled.version, keys


@pytest.fixture()
def versions(tmp_path, toy_machine):
    """v1/v2 artifacts for the same machine plus their offline references."""
    artifact_v1 = make_artifact(toy_machine)
    time.sleep(0.01)  # strictly younger created_at for v2
    artifact_v2 = make_artifact(toy_machine, throughput_scale=2.0)
    assert artifact_v2.created_at > artifact_v1.created_at

    kernels = random_kernels(
        list(toy_machine.benchmarkable_instructions()), 24, seed=11
    )
    blocks = [
        {ins.name: float(count) for ins, count in kernel.counts.items()}
        for kernel in kernels
    ]
    version_v1, keys_v1 = reference_keys(
        tmp_path, toy_machine, artifact_v1, blocks, "v1"
    )
    version_v2, keys_v2 = reference_keys(
        tmp_path, toy_machine, artifact_v2, blocks, "v2"
    )
    # The republish must be observable: the two versions disagree on at
    # least one block (the front-end resource binds some kernels).
    assert keys_v1 != keys_v2
    return artifact_v1, artifact_v2, blocks, {
        version_v1: keys_v1,
        version_v2: keys_v2,
    }


class _StreamingClient(threading.Thread):
    """One connection streaming blocks round-robin until told to stop."""

    def __init__(self, address, fingerprint, blocks, stop_event):
        super().__init__(daemon=True)
        self.address = address
        self.fingerprint = fingerprint
        self.blocks = blocks
        self.stop_event = stop_event
        self.observations = []  # (block_index, version, prediction_key)
        self.failures = []
        self.served = 0

    def run(self) -> None:
        try:
            with ServingClient(*self.address) as client:
                index = 0
                while not self.stop_event.is_set():
                    block_index = index % len(self.blocks)
                    response = client.predict_blocks(
                        [self.blocks[block_index]],
                        fingerprint=self.fingerprint,
                        request_id=index,
                    )
                    if not response.get("ok"):
                        self.failures.append(response)
                        return
                    self.observations.append(
                        (
                            block_index,
                            response["version"],
                            prediction_key(response["predictions"][0]),
                        )
                    )
                    self.served += 1
                    index += 1
        except Exception as error:  # noqa: BLE001 - surfaced by the test
            self.failures.append(error)


def served_counts(clients):
    return [client.served for client in clients]


def wait_until(predicate, timeout=30.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestZeroDowntimeRepublish:
    def test_v2_publish_under_8_concurrent_streams(
        self, tmp_path, toy_machine, versions
    ):
        artifact_v1, artifact_v2, blocks, references = versions
        version_v1 = artifact_v1.created_at
        version_v2 = artifact_v2.created_at
        source = tmp_path / "source"
        ArtifactRegistry(source).save(artifact_v1)

        node = ClusterNode("n0", source, tmp_path / "replica").start()
        stop = threading.Event()
        clients = []
        try:
            fingerprint = artifact_v1.machine_fingerprint
            clients = [
                _StreamingClient(node.address, fingerprint, blocks, stop)
                for _ in range(8)
            ]
            for client in clients:
                client.start()
            # Everyone is streaming v1...
            assert wait_until(
                lambda: min(served_counts(clients), default=0) >= 8
            ), served_counts(clients)
            marks = served_counts(clients)

            # ...now publish v2 and hot-swap while they stream.
            ArtifactRegistry(source).save(artifact_v2)
            node.sync()
            with ServingClient(*node.address) as admin:
                outcome = admin.republish()
            assert outcome["ok"], outcome
            assert outcome["swapped"] == {fingerprint: version_v2}
            assert outcome["failed"] == {}

            # Let every client stream well past the cutover, then stop.
            assert wait_until(
                lambda: all(
                    now >= before + 8
                    for now, before in zip(served_counts(clients), marks)
                )
            ), (served_counts(clients), marks)
        finally:
            stop.set()
            for client in clients:
                client.join(timeout=30.0)
            snapshot = node.service.snapshot()
            node.stop()

        # Zero failed requests, on every connection.
        for client in clients:
            assert client.failures == [], client.failures
            assert not client.is_alive()

        observed_versions = set()
        for client in clients:
            last_version = None
            seen_v2 = False
            for block_index, version, key in client.observations:
                observed_versions.add(version)
                # Monotone version cutover per connection.
                if last_version is not None:
                    assert version >= last_version, client.observations
                last_version = version
                # The label is a routing-time observation: the answer is
                # the labeled version's bits or a newer version's (the
                # flush may have crossed the swap) — and after the first
                # v2 label, exactly v2's.
                if version == version_v2:
                    seen_v2 = True
                    assert key == references[version_v2][block_index]
                else:
                    assert version == version_v1
                    allowed = (
                        references[version_v1][block_index],
                        references[version_v2][block_index],
                    )
                    assert key in allowed
                if seen_v2:
                    assert version == version_v2
        # Both versions actually served (the swap happened mid-stream).
        assert len(observed_versions) == 2

        # The drain is on the ledger.
        assert snapshot["mapping_republishes"] == 1
        assert snapshot["republish_pending_peak"] >= 0
        assert (
            snapshot["requests_admitted"]
            == snapshot["requests_completed"] + snapshot["requests_failed"]
        )
        assert snapshot["requests_failed"] == 0

    def test_republish_is_a_noop_when_nothing_changed(
        self, tmp_path, toy_machine, versions
    ):
        artifact_v1, _, blocks, references = versions
        source = tmp_path / "source"
        ArtifactRegistry(source).save(artifact_v1)
        node = ClusterNode("n0", source, tmp_path / "replica").start()
        try:
            with ServingClient(*node.address) as client:
                client.predict_blocks(
                    [blocks[0]], fingerprint=artifact_v1.machine_fingerprint
                )
                outcome = client.republish()
                assert outcome["swapped"] == {}
                assert outcome["failed"] == {}
            assert node.service.snapshot()["mapping_republishes"] == 0
        finally:
            node.stop()

    def test_botched_republish_keeps_v1_serving(
        self, tmp_path, toy_machine, versions
    ):
        """A changed-but-invalid artifact file degrades loudly to v1."""
        artifact_v1, _, blocks, references = versions
        version_v1 = artifact_v1.created_at
        source = tmp_path / "source"
        ArtifactRegistry(source).save(artifact_v1)
        node = ClusterNode("n0", source, tmp_path / "replica").start()
        try:
            fingerprint = artifact_v1.machine_fingerprint
            with ServingClient(*node.address) as client:
                first = client.predict_blocks([blocks[0]], fingerprint=fingerprint)
                assert first["ok"]
                # Rot the *replica* file in place (mtime changes, content
                # no longer validates).
                artifact_path = next(node.replica_dir.glob("mapping-*.json"))
                payload = bytearray(artifact_path.read_bytes())
                payload[len(payload) // 3] ^= 0xFF
                artifact_path.write_bytes(bytes(payload))

                outcome = client.republish()
                assert outcome["swapped"] == {}
                assert list(outcome["failed"]) == [fingerprint]

                # v1 keeps serving, same version label, same bits.
                again = client.predict_blocks([blocks[0]], fingerprint=fingerprint)
                assert again["ok"]
                assert again["version"] == version_v1
                assert prediction_key(
                    again["predictions"][0]
                ) == prediction_key(first["predictions"][0])
        finally:
            node.stop()

    def test_watcher_propagates_a_publish_across_the_fleet(
        self, tmp_path, toy_machine, versions
    ):
        """Nodes with a republish watcher pick v2 up with no operator op."""
        artifact_v1, artifact_v2, blocks, references = versions
        version_v2 = artifact_v2.created_at
        source = tmp_path / "source"
        ArtifactRegistry(source).save(artifact_v1)
        nodes = [
            ClusterNode(
                f"n{index}",
                source,
                tmp_path / f"replica{index}",
                republish_poll_s=0.02,
            ).start()
            for index in range(3)
        ]
        try:
            fingerprint = artifact_v1.machine_fingerprint
            # Warm every node onto v1 (the watcher only swaps *resident*
            # mappings; an unwarmed node would simply load v2 on first use).
            for node in nodes:
                with ServingClient(*node.address) as client:
                    warm = client.predict_blocks(
                        [blocks[0]], fingerprint=fingerprint
                    )
                    assert warm["ok"]
            ArtifactRegistry(source).save(artifact_v2)

            def fleet_on_v2():
                for node in nodes:
                    with ServingClient(*node.address) as client:
                        response = client.predict_blocks(
                            [blocks[0]], fingerprint=fingerprint
                        )
                        if not response.get("ok"):
                            return False
                        if response["version"] != version_v2:
                            return False
                return True

            assert wait_until(fleet_on_v2, timeout=30.0)
            for node in nodes:
                assert node.last_sync_error is None
                assert node.service.snapshot()["mapping_republishes"] == 1
        finally:
            for node in nodes:
                node.stop()
