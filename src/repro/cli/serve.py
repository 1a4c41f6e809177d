"""``serve``: run a serving node over a registry of saved mappings.

Two transports, both stdlib-only JSON-per-line
(:mod:`repro.serving.frontend`):

* ``--stdio`` — requests on stdin, responses on stdout; composes with
  shell pipelines and is what the docs walkthrough drives;
* ``--port N`` (default) — a threaded TCP server; ``--port 0`` picks an
  ephemeral port and prints it, so scripts (and the CI smoke job) can
  parse ``listening on HOST:PORT`` and connect.

TCP clients may additionally negotiate the length-prefixed binary framing
with a ``hello`` line (see :mod:`repro.serving.frontend`); stdio stays
JSON-only.

The node opens the registry read-only, serves every machine it holds
(routed per request by name or fingerprint), micro-batches concurrent
requests per machine, and prints the serving statistics table on
shutdown.

Cluster modes (:mod:`repro.cluster`):

* ``--node --node-id n0 --sync-from SRC --artifacts REPLICA`` — a fleet
  node: replicate the source registry into a private replica
  (hash-validated), serve it read-only over the same protocol, and
  (``--republish-poll-ms N``) watch the source for republished
  artifacts, hot-swapping with zero downtime;
* ``--cluster --nodes n0=host:p,n1=host:p,...`` — the coordinator: a
  TCP frontend that shards predict traffic across the fleet by machine
  fingerprint (rendezvous hashing), fails over between replicas, and
  fans management ops (``stats``, ``health``, ``republish``,
  ``shutdown {"fleet": true}``) out fleet-wide.
"""

from __future__ import annotations

import argparse
import sys


def run_serve(args: argparse.Namespace) -> int:
    from repro.telemetry import telemetry_session

    if getattr(args, "cluster", False):
        kind, runner = "cluster", _run_coordinator
    elif getattr(args, "node", False):
        kind, runner = "node", _run_node
    else:
        kind, runner = "serve", _run_standalone
    # A no-op context when --telemetry is absent; otherwise every span
    # and metric of this server's lifetime lands in one warehouse run.
    with telemetry_session(getattr(args, "telemetry", None), kind=kind):
        return runner(args)


def _run_standalone(args: argparse.Namespace) -> int:
    from repro.serving import LineProtocolServer, PredictionService, serve_stdio

    if args.artifacts is None:
        print("error: serve needs --artifacts DIR", file=sys.stderr)
        return 2
    service = PredictionService(
        args.artifacts,
        max_batch_size=args.max_batch,
        max_wait_s=args.max_wait_ms / 1e3,
        max_pending=args.max_pending if args.max_pending > 0 else None,
        mapping_cache_capacity=args.mapping_cache,
    )
    known = service.registry.entries()
    if not known:
        print(
            f"error: registry {args.artifacts} holds no mapping artifacts — "
            f"run 'python -m repro characterize --artifacts {args.artifacts}' "
            f"first (see 'python -m repro artifacts')",
            file=sys.stderr,
        )
        return 1
    names = ", ".join(sorted(artifact.machine_name for artifact in known))

    with service:
        if args.stdio:
            print(
                f"serving {len(known)} machine(s) ({names}) on stdio",
                file=sys.stderr,
            )
            answered = serve_stdio(service, sys.stdin, sys.stdout)
            print(f"served {answered} request line(s)", file=sys.stderr)
        else:
            server = LineProtocolServer(service, host=args.host, port=args.port)
            host, port = server.address
            print(f"serving {len(known)} machine(s) ({names})", flush=True)
            print(f"listening on {host}:{port}", flush=True)
            try:
                server.serve_forever(poll_interval=0.1)
            except KeyboardInterrupt:
                pass
            finally:
                server.server_close()
        print(service.stats.format_table(), file=sys.stderr)
    return 0


def _run_node(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterNode

    if args.artifacts is None or args.sync_from is None:
        print(
            "error: --node needs --sync-from SOURCE (the published "
            "registry) and --artifacts DIR (this node's replica)",
            file=sys.stderr,
        )
        return 2
    if args.stdio:
        print("error: cluster nodes serve TCP only", file=sys.stderr)
        return 2
    node = ClusterNode(
        args.node_id,
        args.sync_from,
        args.artifacts,
        host=args.host,
        port=args.port,
        republish_poll_s=args.republish_poll_ms / 1e3,
        max_batch_size=args.max_batch,
        max_wait_s=args.max_wait_ms / 1e3,
        max_pending=args.max_pending if args.max_pending > 0 else None,
        mapping_cache_capacity=args.mapping_cache,
    )
    node.start()
    try:
        host, port = node.address
        artifacts = node.service.registry.entries()
        names = ", ".join(sorted(a.machine_name for a in artifacts))
        print(
            f"node {args.node_id} serving {len(artifacts)} machine(s) "
            f"({names}) from replica {args.artifacts}",
            flush=True,
        )
        print(f"listening on {host}:{port}", flush=True)
        service = node.service
        try:
            node.wait()
        except KeyboardInterrupt:
            pass
        print(service.stats.format_table(), file=sys.stderr)
    finally:
        node.stop()
    return 0


def _run_coordinator(args: argparse.Namespace) -> int:
    import json

    from repro.cluster import (
        ClusterCoordinator,
        CoordinatorServer,
        NodeSpec,
        RetryPolicy,
    )

    if not args.nodes:
        print(
            "error: --cluster needs --nodes id=host:port,id=host:port,...",
            file=sys.stderr,
        )
        return 2
    if args.stdio:
        print("error: the coordinator serves TCP only", file=sys.stderr)
        return 2
    specs = [
        NodeSpec.parse(spec.strip(), index)
        for index, spec in enumerate(args.nodes.split(","))
        if spec.strip()
    ]
    coordinator = ClusterCoordinator(
        specs,
        replicas=args.replicas,
        retry=RetryPolicy(
            attempts=args.retry_attempts,
            timeout_s=args.node_timeout_ms / 1e3,
        ),
        node_wire=args.node_wire,
    )
    fleet = coordinator.poll_health()
    reachable = sum(
        1 for report in fleet.values() if report.get("status") == "ok"
    )
    server = CoordinatorServer(coordinator, host=args.host, port=args.port)
    host, port = server.address
    print(
        f"coordinating {len(specs)} node(s), {reachable} reachable "
        f"({', '.join(spec.node_id for spec in specs)}), "
        f"replicas={args.replicas}, wire={args.node_wire}",
        flush=True,
    )
    print(f"listening on {host}:{port}", flush=True)
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        coordinator.close()
        print(json.dumps(coordinator.stats.snapshot()), file=sys.stderr)
    return 0


def register(subparsers) -> None:
    """Attach the ``serve`` subcommand."""
    serve = subparsers.add_parser(
        "serve",
        help="serve micro-batched predictions from saved mapping artifacts",
    )
    serve.add_argument(
        "--artifacts",
        metavar="DIR",
        default=None,
        help="registry directory (standalone: the registry to serve; "
        "--node: this node's replica directory)",
    )
    transport = serve.add_mutually_exclusive_group()
    transport.add_argument(
        "--stdio",
        action="store_true",
        help="serve on stdin/stdout instead of a TCP socket",
    )
    transport.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port to listen on (default: 0 = ephemeral, printed)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="TCP bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=512,
        help="kernel cap per coalesced micro-batch (default: 512)",
    )
    serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=0.0,
        help="linger for stragglers up to this many ms once the queue "
        "drains (default: 0 = flush immediately)",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=4096,
        help="admission bound: outstanding kernels per machine lane "
        "before requests are refused (default: 4096; 0 = unbounded)",
    )
    serve.add_argument(
        "--mapping-cache",
        type=int,
        default=8,
        help="hot-mapping cache capacity in compiled machines (default: 8)",
    )
    serve.add_argument(
        "--telemetry",
        metavar="DB",
        default=None,
        help="record per-flush latency/occupancy metrics and spans into "
        "this sqlite warehouse for the server's lifetime (query with "
        "'python -m repro stats --db DB serving'); predictions are "
        "bitwise-identical with or without it",
    )
    role = serve.add_mutually_exclusive_group()
    role.add_argument(
        "--node",
        action="store_true",
        help="run as a cluster serving node: sync a replica from "
        "--sync-from into --artifacts, then serve it read-only",
    )
    role.add_argument(
        "--cluster",
        action="store_true",
        help="run as the cluster coordinator fronting --nodes",
    )
    serve.add_argument(
        "--node-id",
        default="node0",
        help="this node's stable identity in the cluster (default: node0)",
    )
    serve.add_argument(
        "--sync-from",
        metavar="DIR",
        default=None,
        help="(--node) the published source registry to replicate from",
    )
    serve.add_argument(
        "--republish-poll-ms",
        type=float,
        default=0.0,
        help="(--node) re-sync the replica and hot-swap changed mappings "
        "every N ms (default: 0 = only on the 'republish' op)",
    )
    serve.add_argument(
        "--nodes",
        metavar="SPECS",
        default=None,
        help="(--cluster) comma-separated node table, id=host:port each",
    )
    serve.add_argument(
        "--replicas",
        type=int,
        default=2,
        help="(--cluster) candidate nodes per fingerprint (default: 2)",
    )
    serve.add_argument(
        "--node-wire",
        choices=("json", "binary"),
        default="json",
        help="(--cluster) node-to-node predict wire format (default: json)",
    )
    serve.add_argument(
        "--retry-attempts",
        type=int,
        default=2,
        help="(--cluster) per-node attempts before failover (default: 2)",
    )
    serve.add_argument(
        "--node-timeout-ms",
        type=float,
        default=10000.0,
        help="(--cluster) per-exchange node timeout (default: 10000)",
    )
    serve.set_defaults(handler=run_serve)
