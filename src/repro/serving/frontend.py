"""Stdlib-only line-protocol frontend: JSON per line, over stdio or TCP.

A fresh process can serve saved artifacts with nothing but the standard
library: ``python -m repro serve --artifacts DIR`` wires a
:class:`~repro.serving.service.PredictionService` to this protocol,
either on stdin/stdout (``--stdio``, one request line in, one response
line out — trivially scriptable) or on a TCP socket (one thread per
connection, lines multiplexed through the shared service, so concurrent
clients' requests coalesce into shared micro-batches).

Protocol
--------
Each request is one JSON object per line.  Prediction requests::

    {"id": 1, "machine": "toy", "blocks": [{"ADDSS": 2.0, "BSR": 1.0}]}
    {"id": 2, "fingerprint": "<64 hex chars>", "blocks": [...]}

``machine`` addresses a stored artifact by name, ``fingerprint`` by the
registry key; blocks map instruction mnemonics to multiplicities.  The
response echoes the ``id``::

    {"id": 1, "ok": true, "machine": "toy", "fingerprint": "...",
     "predictions": [{"ipc": 2.0, "supported_fraction": 1.0}]}

Management ops: ``{"op": "ping"}``, ``{"op": "stats"}``, ``{"op":
"health"}`` (the node's load report, what a cluster coordinator's
admission reads), ``{"op": "republish"}`` (hot-swap every resident
mapping whose artifact file changed; zero downtime) and ``{"op":
"shutdown"}`` (answers, then stops the server loop).

Failures are **typed, never silent**: every refusal — overload, unknown
machine, malformed request — produces ``{"ok": false, "error": {"type":
..., "message": ...}}`` with the exception class name, mirroring the
registry's refusal style on the wire.

Unknown mnemonics are legal: they resolve to placeholder instructions the
mapping does not support, so the response degrades exactly like the
paper's protocol (reduced ``supported_fraction``, ``ipc: null`` when
nothing is supported) instead of erroring.

Binary framing (negotiated, TCP only)
-------------------------------------
JSON-per-line stays the default; a TCP client that will send bulk traffic
negotiates the length-prefixed binary format with one JSON hello line::

    {"op": "hello", "format": "binary", "machine": "toy"}

The (JSON) hello response pins the connection to that machine and carries
``instructions``: the supported mnemonics in sorted order.  An
instruction's **dense id** is its index in that list, fixed for the
connection.  Every subsequent exchange is little-endian binary frames,
``u32 payload-length`` followed by the payload:

* request — ``u32 magic, u32 request_id, u32 num_kernels k, u32
  num_entries e``, then ``f64 sizes[k]``, ``f64 counts[e]``, ``u32
  lengths[k]``, ``u32 ids[e]`` (floats first keeps them 8-byte aligned).
  Per kernel, dense ids must ascend strictly — sorted-name order, i.e.
  the engine's bitwise accumulation order — with at most one
  ``0xFFFFFFFF`` sentinel (an unknown instruction) in last position.
* response — ``u32 magic, u32 request_id, u32 status, u32 k`` plus, on
  success, ``f64 ipc[k]`` (NaN encodes ``null``) and ``f64 fraction[k]``;
  on failure, the same typed ``{"type", "message"}`` error as JSON,
  UTF-8-encoded.  Malformed *framing* (bad magic, oversized length)
  closes the connection — there is no resynchronization point inside a
  corrupted stream.

The server decodes a frame straight into one
:class:`~repro.predictors.batch.LoweredBatch` — no dicts, no
:class:`~repro.mapping.microkernel.Microkernel` objects, no per-kernel
Python on the hot path — and responses are bitwise-identical to the JSON
path for the same blocks.  :class:`BinaryServingClient` implements the
client side.
"""

from __future__ import annotations

import json
import socket
import socketserver
import struct
import threading
from typing import Dict, List, Optional, TextIO, Tuple

import numpy as np

from repro.isa.instruction import Extension, Instruction, InstructionKind
from repro.mapping.microkernel import Microkernel
from repro.predictors.base import Prediction
from repro.predictors.batch import (
    LoweredBatch,
    instruction_id,
    predictions_from_arrays,
)
from repro.serving.errors import InvalidRequestError, ServingError
from repro.serving.service import PredictionService

#: The single placeholder all unknown request mnemonics collapse onto.
#: Unknown names carry no information beyond their multiplicity (they are
#: unsupported whatever they are called), and collapsing them keeps
#: client-controlled strings out of the process-global instruction intern
#: table — a node fed ever-fresh garbage mnemonics stays bounded.
_UNKNOWN_INSTRUCTION = Instruction(
    "__UNKNOWN__", InstructionKind.INT_ALU, Extension.BASE
)

#: Exclusive upper bound of a JSON multiplicity.  ``json.loads`` accepts
#: ``NaN``, ``Infinity`` and overflowing literals such as ``1e309``; the
#: one chained comparison ``0 < value < _INF`` refuses all of them.
_INF = float("inf")

#: Binary frame magics ("PALQ"/"PALR" little-endian) and the dense-id
#: sentinel for an unknown instruction.  The sentinel is the largest u32,
#: so "strictly ascending dense ids per kernel" implies at most one
#: unknown entry, in last position — no separate check needed.
_BINARY_REQUEST_MAGIC = 0x51_4C_41_50
_BINARY_RESPONSE_MAGIC = 0x52_4C_41_50
_BINARY_UNKNOWN_ID = 0xFFFF_FFFF
_BINARY_HEADER = struct.Struct("<IIII")
#: Hard cap on one frame's payload (64 MiB ≈ 2.7M kernel entries); a
#: length beyond it is treated as stream corruption, not as a request.
_BINARY_MAX_FRAME = 64 * 1024 * 1024


def _parse_blocks(compiled, payload: object) -> List[Microkernel]:
    """Request blocks -> kernels, resolving mnemonics via the mapping."""
    if not isinstance(payload, list) or not payload:
        raise InvalidRequestError(
            "request needs a non-empty 'blocks' list of "
            "{mnemonic: multiplicity} objects"
        )
    table = compiled.instruction_by_name
    kernels: List[Microkernel] = []
    for index, block in enumerate(payload):
        if not isinstance(block, dict) or not block:
            raise InvalidRequestError(
                f"block {index} must be a non-empty "
                f"{{mnemonic: multiplicity}} object"
            )
        counts: Dict[Instruction, float] = {}
        for name, value in block.items():
            if not isinstance(name, str) or not name:
                raise InvalidRequestError(
                    f"block {index} has a non-string mnemonic key"
                )
            if not isinstance(value, (int, float)) or not 0 < value < _INF:
                raise InvalidRequestError(
                    f"block {index}, {name!r}: multiplicity must be a "
                    f"finite positive number, got {value!r}"
                )
            # A mnemonic this mapping has never seen is simply unsupported;
            # its weight is all that matters (Microkernel sums duplicate
            # keys), so every unknown name folds onto one placeholder.
            instruction = table.get(name, _UNKNOWN_INSTRUCTION)
            counts[instruction] = counts.get(instruction, 0.0) + float(value)
        kernels.append(Microkernel(counts))
    return kernels


def _prediction_dict(prediction: Prediction) -> Dict[str, object]:
    return {
        "ipc": prediction.ipc,
        "supported_fraction": prediction.supported_fraction,
    }


def handle_request(
    service: PredictionService,
    request: object,
    transport_binary: bool = False,
) -> Tuple[Dict[str, object], bool]:
    """Answer one decoded request object; returns (response, shutdown).

    ``transport_binary`` says whether the transport can switch to binary
    framing after a successful binary hello — the TCP handler passes
    ``True``; stdio stays text-only and refuses the negotiation.
    """
    if not isinstance(request, dict):
        raise InvalidRequestError("each request line must be a JSON object")
    op = request.get("op", "predict")
    if op == "ping":
        return {"id": request.get("id"), "ok": True, "pong": True}, False
    if op == "stats":
        return (
            {"id": request.get("id"), "ok": True, "stats": service.snapshot()},
            False,
        )
    if op == "shutdown":
        return {"id": request.get("id"), "ok": True, "stopping": True}, True
    if op == "health":
        return (
            {"id": request.get("id"), "ok": True, "health": service.health()},
            False,
        )
    if op == "republish":
        return (
            {"id": request.get("id"), "ok": True, **service.republish()},
            False,
        )
    if op == "hello":
        return _handle_hello(service, request, transport_binary), False
    if op != "predict":
        raise InvalidRequestError(
            f"unknown op {op!r} (known: predict, hello, ping, stats, "
            f"health, republish, shutdown)"
        )

    fingerprint = request.get("fingerprint")
    machine = request.get("machine")
    if fingerprint is None and machine is None:
        raise InvalidRequestError(
            "a predict request needs 'fingerprint' or 'machine'"
        )
    if fingerprint is None:
        fingerprint = service.resolve(str(machine))
    # One hot-mapping-cache lookup per request; reused for mnemonic
    # resolution and the response envelope.
    compiled = service.compiled(str(fingerprint))
    kernels = _parse_blocks(compiled, request.get("blocks"))
    predictions = service.predict_many(str(fingerprint), kernels)
    return (
        {
            "id": request.get("id"),
            "ok": True,
            "machine": compiled.machine_name,
            "fingerprint": compiled.fingerprint,
            # The artifact publication stamp the request was *routed*
            # against.  The hot-cache swap is atomic and monotone, so per
            # connection the label never goes backwards across a
            # zero-downtime republish (the cutover test's invariant).
            "version": compiled.version,
            "predictions": [_prediction_dict(p) for p in predictions],
        },
        False,
    )


def _handle_hello(
    service: PredictionService, request: Dict[str, object], transport_binary: bool
) -> Dict[str, object]:
    """Wire-format negotiation: echo json, or pin the connection binary."""
    wire_format = request.get("format", "json")
    if wire_format == "json":
        return {"id": request.get("id"), "ok": True, "format": "json"}
    if wire_format != "binary":
        raise InvalidRequestError(
            f"unknown wire format {wire_format!r} (known: json, binary)"
        )
    if not transport_binary:
        raise InvalidRequestError(
            "binary framing needs a byte transport; this connection is "
            "text-only (use TCP, or stay on the json format)"
        )
    fingerprint = request.get("fingerprint")
    machine = request.get("machine")
    if fingerprint is None and machine is None:
        raise InvalidRequestError(
            "a binary hello needs 'fingerprint' or 'machine': the dense "
            "instruction table is per-mapping, so the connection is pinned "
            "to one machine"
        )
    if fingerprint is None:
        fingerprint = service.resolve(str(machine))
    compiled = service.compiled(str(fingerprint))
    names, _ = compiled.dense_instruction_table()
    return {
        "id": request.get("id"),
        "ok": True,
        "format": "binary",
        "machine": compiled.machine_name,
        "fingerprint": compiled.fingerprint,
        "instructions": names,
    }


def _decode_binary_request(
    payload: bytes, table_size: int, dense_to_interned: np.ndarray
) -> LoweredBatch:
    """One request frame payload -> a validated :class:`LoweredBatch`.

    Every slab is validated before the batch is built (shape, finiteness,
    id range, per-kernel strict ascent) so a malformed frame is refused
    with a typed error instead of corrupting an evaluation.
    """
    _, _, num_kernels, num_entries = _BINARY_HEADER.unpack_from(payload, 0)
    if num_kernels < 1:
        raise InvalidRequestError("a binary request needs at least one kernel")
    expected = 16 + 12 * num_kernels + 12 * num_entries
    if len(payload) != expected:
        raise InvalidRequestError(
            f"binary request payload is {len(payload)} bytes; "
            f"{num_kernels} kernel(s) with {num_entries} entries "
            f"need exactly {expected}"
        )
    offset = 16
    sizes = np.frombuffer(payload, "<f8", num_kernels, offset)
    offset += 8 * num_kernels
    counts = np.frombuffer(payload, "<f8", num_entries, offset)
    offset += 8 * num_entries
    lengths_raw = np.frombuffer(payload, "<u4", num_kernels, offset)
    offset += 4 * num_kernels
    ids_raw = np.frombuffer(payload, "<u4", num_entries, offset)

    lengths = lengths_raw.astype(np.intp)
    if num_kernels and (not (lengths >= 1).all() or int(lengths.sum()) != num_entries):
        raise InvalidRequestError(
            "kernel lengths must each be >= 1 and sum to the entry count"
        )
    if not np.isfinite(sizes).all() or not (sizes > 0).all():
        raise InvalidRequestError("kernel sizes must be finite and positive")
    if not np.isfinite(counts).all() or not (counts > 0).all():
        raise InvalidRequestError("multiplicities must be finite and positive")
    known = ids_raw < table_size
    if not (known | (ids_raw == _BINARY_UNKNOWN_ID)).all():
        raise InvalidRequestError(
            f"dense instruction ids must be < {table_size} (the hello "
            f"table size) or the unknown sentinel"
        )
    if num_entries > 1:
        ascending = np.diff(ids_raw.astype(np.int64)) > 0
        # The comparison across a kernel boundary (last entry of kernel j
        # against first of kernel j+1) carries no ordering constraint.
        boundary = np.zeros(num_entries - 1, dtype=bool)
        boundary[np.cumsum(lengths[:-1]) - 1] = True
        if not (ascending | boundary).all():
            raise InvalidRequestError(
                "dense ids must ascend strictly within each kernel "
                "(sorted-name order; at most one unknown sentinel, last)"
            )
    # Gather dense -> interned; the sentinel routes to the appended
    # unknown-placeholder slot.
    indices = np.minimum(ids_raw.astype(np.intp), table_size)
    return LoweredBatch(
        instruction_ids=dense_to_interned[indices],
        counts=counts,
        lengths=lengths,
        sizes=np.asarray(sizes, dtype=np.float64),
    )


def _encode_binary_ok(request_id: int, predictions: List[Prediction]) -> bytes:
    num_kernels = len(predictions)
    ipcs = np.empty(num_kernels, dtype=np.float64)
    fractions = np.empty(num_kernels, dtype=np.float64)
    for index, prediction in enumerate(predictions):
        ipcs[index] = np.nan if prediction.ipc is None else prediction.ipc
        fractions[index] = prediction.supported_fraction
    payload = (
        _BINARY_HEADER.pack(
            _BINARY_RESPONSE_MAGIC, request_id & 0xFFFF_FFFF, 0, num_kernels
        )
        + ipcs.tobytes()
        + fractions.tobytes()
    )
    return struct.pack("<I", len(payload)) + payload


def _encode_binary_error(request_id: int, error: BaseException) -> bytes:
    body = json.dumps(
        {"type": type(error).__name__, "message": str(error)}
    ).encode("utf-8")
    payload = (
        _BINARY_HEADER.pack(
            _BINARY_RESPONSE_MAGIC, request_id & 0xFFFF_FFFF, 1, 0
        )
        + body
    )
    return struct.pack("<I", len(payload)) + payload


def handle_line(
    service: PredictionService, line: str, transport_binary: bool = False
) -> Tuple[Dict[str, object], bool]:
    """Answer one protocol line; failures become typed error envelopes."""
    request_id = None
    try:
        request = json.loads(line)
        if isinstance(request, dict):
            request_id = request.get("id")
        return handle_request(service, request, transport_binary)
    except Exception as error:  # noqa: BLE001 - typed on the wire
        return (
            {
                "id": request_id,
                "ok": False,
                "error": {
                    "type": type(error).__name__,
                    "message": str(error),
                },
            },
            False,
        )


def serve_stdio(
    service: PredictionService, in_stream: TextIO, out_stream: TextIO
) -> int:
    """Serve the line protocol over a stream pair until EOF or shutdown.

    Returns the number of request lines answered.
    """
    answered = 0
    for line in in_stream:
        line = line.strip()
        if not line:
            continue
        response, shutdown = handle_line(service, line)
        out_stream.write(json.dumps(response) + "\n")
        out_stream.flush()
        answered += 1
        if shutdown:
            break
    return answered


class _LineHandler(socketserver.StreamRequestHandler):
    """One connection: request lines in, response lines out, in order.

    After a successful binary hello the connection leaves line mode for
    good and serves length-prefixed frames until the peer disconnects.
    An abrupt disconnect (reset, broken pipe, timeout) ends the handler
    quietly — the thread is reaped, nothing is logged as a server error,
    and any kernels the peer had in flight resolve into cancelled futures
    whose admission capacity the batcher releases.
    """

    def handle(self) -> None:
        try:
            self._serve()
        except (ConnectionError, socket.timeout):
            pass  # peer vanished mid-exchange; reap the thread quietly

    def _serve(self) -> None:
        server: "LineProtocolServer" = self.server  # type: ignore[assignment]
        for raw in self.rfile:
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            response, shutdown = handle_line(
                server.service, line, transport_binary=True
            )
            self.wfile.write((json.dumps(response) + "\n").encode("utf-8"))
            self.wfile.flush()
            if shutdown:
                # shutdown() must run off the serve_forever thread.
                threading.Thread(target=server.shutdown, daemon=True).start()
                return
            if response.get("ok") and response.get("format") == "binary":
                self._serve_binary(server, str(response["fingerprint"]))
                return

    def _serve_binary(self, server: "LineProtocolServer", fingerprint: str) -> None:
        """Serve binary frames until EOF or stream corruption."""
        service = server.service
        compiled = service.compiled(fingerprint)
        _, interned = compiled.dense_instruction_table()
        table_size = interned.size
        # Slot ``table_size`` answers the unknown sentinel: the same
        # placeholder the JSON path folds unknown mnemonics onto.
        dense_to_interned = np.concatenate(
            [
                interned,
                np.array([instruction_id(_UNKNOWN_INSTRUCTION)], dtype=np.intp),
            ]
        )
        read = self.rfile.read
        write = self.wfile.write
        while True:
            head = read(4)
            if len(head) < 4:
                return  # EOF between frames: a clean disconnect
            (length,) = struct.unpack("<I", head)
            if length < _BINARY_HEADER.size or length > _BINARY_MAX_FRAME:
                return  # corrupted stream: no resync point, drop the link
            payload = read(length)
            if len(payload) < length:
                return
            magic, request_id, _, _ = _BINARY_HEADER.unpack_from(payload, 0)
            if magic != _BINARY_REQUEST_MAGIC:
                return
            try:
                batch = _decode_binary_request(
                    payload, table_size, dense_to_interned
                )
                predictions = service.submit_lowered(fingerprint, batch).result()
                write(_encode_binary_ok(request_id, predictions))
            except Exception as error:  # noqa: BLE001 - typed on the wire
                write(_encode_binary_error(request_id, error))
            self.wfile.flush()


class LineProtocolServer(socketserver.ThreadingTCPServer):
    """Threaded TCP server multiplexing connections onto one service.

    Each connection gets a handler thread; all of them submit into the
    same :class:`PredictionService`, which is where concurrent clients'
    requests coalesce into shared micro-batches.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        service: PredictionService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__((host, port), _LineHandler)
        self.service = service
        self._connection_lock = threading.Lock()
        self._active_connections = 0
        self._open_sockets: set = set()

    def process_request_thread(self, request, client_address) -> None:
        # Counted in the handler thread itself so the count reflects
        # threads actually alive — the reap-on-disconnect regression test
        # watches this drop back down after an abrupt client exit.
        with self._connection_lock:
            self._active_connections += 1
            self._open_sockets.add(request)
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._connection_lock:
                self._active_connections -= 1
                self._open_sockets.discard(request)

    def close_client_connections(self) -> None:
        """Sever every established client connection (fault drills).

        ``shutdown()`` only stops the accept loop — connections already in
        a handler thread keep draining, which is the zero-downtime default.
        Crash-style fault tests (:meth:`repro.cluster.ClusterNode.kill`)
        call this to cut the established sockets too: readers unblock with
        EOF, the handler threads exit, and in-flight peers see a transport
        failure instead of a drained goodbye.
        """
        with self._connection_lock:
            sockets = list(self._open_sockets)
        for sock in sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closing — the handler owns the close()

    @property
    def active_connections(self) -> int:
        """Connections with a live handler thread right now."""
        with self._connection_lock:
            return self._active_connections

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — port is concrete even when 0 was asked."""
        return self.server_address[0], self.server_address[1]


class ServingClient:
    """Minimal blocking client for the line protocol (tests, CI, scripts)."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._socket = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._socket.makefile("r", encoding="utf-8")

    def request(self, payload: Dict[str, object]) -> Dict[str, object]:
        """Send one request object, wait for its response line."""
        self._socket.sendall((json.dumps(payload) + "\n").encode("utf-8"))
        line = self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def predict_blocks(
        self,
        blocks: List[Dict[str, float]],
        machine: Optional[str] = None,
        fingerprint: Optional[str] = None,
        request_id: Optional[object] = None,
    ) -> Dict[str, object]:
        payload: Dict[str, object] = {"id": request_id, "blocks": blocks}
        if machine is not None:
            payload["machine"] = machine
        if fingerprint is not None:
            payload["fingerprint"] = fingerprint
        return self.request(payload)

    def stats(self) -> Dict[str, object]:
        return self.request({"op": "stats"})

    def health(self) -> Dict[str, object]:
        return self.request({"op": "health"})

    def republish(self) -> Dict[str, object]:
        return self.request({"op": "republish"})

    def shutdown(self) -> Dict[str, object]:
        return self.request({"op": "shutdown"})

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._socket.close()

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class BinaryServingClient:
    """Client for the negotiated binary framing (one machine per connection).

    Sends the JSON hello, keeps the dense instruction table the server
    answered with, and thereafter exchanges length-prefixed binary frames.
    ``predict_blocks`` takes the same ``{mnemonic: multiplicity}`` blocks
    as the JSON protocol and returns :class:`Prediction` objects that are
    bitwise-identical to the JSON path's for the same blocks: multiplicity
    folding and the kernel-size sum replicate
    :class:`~repro.mapping.microkernel.Microkernel`'s cleaned-dict
    accumulation order exactly.
    """

    def __init__(
        self,
        host: str,
        port: int,
        machine: Optional[str] = None,
        fingerprint: Optional[str] = None,
        timeout: float = 30.0,
    ) -> None:
        self._socket = socket.create_connection((host, port), timeout=timeout)
        self._reader = self._socket.makefile("rb")
        hello: Dict[str, object] = {"op": "hello", "format": "binary"}
        if machine is not None:
            hello["machine"] = machine
        if fingerprint is not None:
            hello["fingerprint"] = fingerprint
        try:
            self._socket.sendall((json.dumps(hello) + "\n").encode("utf-8"))
            line = self._reader.readline()
            if not line:
                raise ConnectionError("server closed during the hello")
            response = json.loads(line)
            if not response.get("ok"):
                error = response.get("error", {})
                raise ServingError(
                    f"binary hello refused: {error.get('type')}: "
                    f"{error.get('message')}"
                )
            self.machine: str = str(response["machine"])
            self.fingerprint: str = str(response["fingerprint"])
            self._dense: Dict[str, int] = {
                name: index
                for index, name in enumerate(response["instructions"])
            }
        except BaseException:
            self.close()
            raise

    # -- encoding ------------------------------------------------------------
    def _encode_request(
        self, blocks: List[Dict[str, float]], request_id: int
    ) -> bytes:
        sizes: List[float] = []
        lengths: List[int] = []
        frame_ids: List[int] = []
        frame_counts: List[float] = []
        dense_table = self._dense
        for index, block in enumerate(blocks):
            if not block:
                raise InvalidRequestError(
                    f"block {index} must be a non-empty "
                    f"{{mnemonic: multiplicity}} object"
                )
            # First-occurrence accumulation order — the same fold
            # Microkernel's cleaned dict performs, so the size sum below
            # is bit-for-bit the scalar path's kernel size.
            totals: Dict[int, float] = {}
            for name, value in block.items():
                value = float(value)
                if not value > 0 or value != value or value == float("inf"):
                    raise InvalidRequestError(
                        f"block {index}, {name!r}: multiplicity must be a "
                        f"positive finite number"
                    )
                dense = dense_table.get(name, _BINARY_UNKNOWN_ID)
                totals[dense] = totals.get(dense, 0.0) + value
            size = 0.0
            for total in totals.values():
                size += total
            ordered = sorted(
                dense for dense in totals if dense != _BINARY_UNKNOWN_ID
            )
            if _BINARY_UNKNOWN_ID in totals:
                ordered.append(_BINARY_UNKNOWN_ID)
            sizes.append(size)
            lengths.append(len(ordered))
            frame_ids.extend(ordered)
            frame_counts.extend(totals[dense] for dense in ordered)
        num_kernels = len(blocks)
        num_entries = len(frame_ids)
        payload = b"".join(
            (
                _BINARY_HEADER.pack(
                    _BINARY_REQUEST_MAGIC,
                    request_id & 0xFFFF_FFFF,
                    num_kernels,
                    num_entries,
                ),
                struct.pack(f"<{num_kernels}d", *sizes),
                struct.pack(f"<{num_entries}d", *frame_counts),
                struct.pack(f"<{num_kernels}I", *lengths),
                struct.pack(f"<{num_entries}I", *frame_ids),
            )
        )
        return struct.pack("<I", len(payload)) + payload

    def _read_response(self) -> List[Prediction]:
        head = self._reader.read(4)
        if len(head) < 4:
            raise ConnectionError("server closed the connection")
        (length,) = struct.unpack("<I", head)
        payload = self._reader.read(length)
        if len(payload) < length:
            raise ConnectionError("server closed mid-frame")
        magic, _, status, num_kernels = _BINARY_HEADER.unpack_from(payload, 0)
        if magic != _BINARY_RESPONSE_MAGIC:
            raise ServingError(f"bad response magic {magic:#x}")
        if status != 0:
            error = json.loads(payload[16:].decode("utf-8"))
            raise ServingError(
                f"server refused the request: {error.get('type')}: "
                f"{error.get('message')}"
            )
        ipcs = np.frombuffer(payload, "<f8", num_kernels, 16)
        fractions = np.frombuffer(payload, "<f8", num_kernels, 16 + 8 * num_kernels)
        return predictions_from_arrays(ipcs, fractions)

    # -- API -----------------------------------------------------------------
    def predict_blocks(
        self, blocks: List[Dict[str, float]], request_id: int = 0
    ) -> List[Prediction]:
        """Predict a group of blocks over one binary frame round-trip."""
        if not blocks:
            raise InvalidRequestError("blocks must be a non-empty list")
        self._socket.sendall(self._encode_request(blocks, request_id))
        return self._read_response()

    def close(self) -> None:
        try:
            self._reader.close()
        finally:
            self._socket.close()

    def __enter__(self) -> "BinaryServingClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
